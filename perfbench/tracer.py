"""Outside-in tracing of eicat: every public function of each layer, and the
public methods of the linear-algebra classes, are wrapped where callers bind
them, and each call records a span in memory.

A span is (name, start, end, parent index, item id).  Names are
"layer.function" or "layer.Class.method".  Nothing under src/ knows about
this; `Tracer.install` patches the loaded eicat modules and `uninstall`
puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

from catalog import FUNCTION_METRICS, LAYERS

# Classes whose methods are spans too: their public methods plus these dunders.
_CLASS_SPANS = {
    "linalg": ("Matrix", "Subspace", "QuotientSpace"),
}
_DUNDERS = ("__init__", "__mul__", "__add__", "__sub__")
# Single methods that are spans.
_METHOD_SPANS = {
    "algebra": (("FiniteDimAlgebra", "validate"),),
}


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if not name.startswith("_") and inspect.isfunction(obj) \
                and obj.__module__ == mod.__name__:
            yield name, obj


def _class_methods(cls, names=None):
    """(name, raw attribute, function) for the methods of cls worth a span."""
    for name, attr in vars(cls).items():
        if names is not None and name not in names:
            continue
        if names is None and name.startswith("_") and name not in _DUNDERS:
            continue
        if isinstance(attr, classmethod):
            yield name, attr, attr.__func__
        elif inspect.isfunction(attr):
            yield name, attr, attr


class Tracer:
    """Spans and counters of one traced run.  Spans of a pass are collected
    by `take`, which empties the buffers for the next pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.counts = Counter()
        self.hook_time = defaultdict(float)  # parent index -> time spent in hooks
        self._seen = {}  # (hook, id) -> object; kept alive so ids stay unique
        self._undo = []

    # -- recording -------------------------------------------------------

    def begin_item(self, key):
        self.item = key
        self._seen.clear()

    def _wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.item)
            if hook is not None:
                hook(self, args, result)
                self.hook_time[parent] += clock() - t1
            return result

        return wrapper

    def first_time(self, tag, obj):
        """True the first time obj is seen under tag within the current item."""
        key = (tag, id(obj))
        if key in self._seen:
            return False
        self._seen[key] = obj
        return True

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every layer's public functions in every eicat module that
        binds them (the package itself included), and the class methods
        listed above."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"eicat.{layer}"]
            for _, fn in _public_functions(mod):
                if fn not in wrappers:  # an alias (free_resolution) keeps the def's name
                    span = f"{layer}.{fn.__name__}"
                    wrappers[fn] = self._wrap(span, fn, HOOKS.get(span))
        for modname, mod in list(sys.modules.items()):
            if modname != "eicat" and not modname.startswith("eicat."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        for layer, classes in _CLASS_SPANS.items():
            for cls_name in classes:
                self._patch_class(layer, cls_name, None)
        for layer, methods in _METHOD_SPANS.items():
            for cls_name, meth in methods:
                self._patch_class(layer, cls_name, (meth,))

    def _patch_class(self, layer, cls_name, names):
        cls = getattr(sys.modules[f"eicat.{layer}"], cls_name)
        for name, attr, fn in list(_class_methods(cls, names)):
            span = f"{layer}.{cls_name}.{name}"
            w = self._wrap(span, fn, HOOKS.get(span))
            self._undo.append((cls, name, attr))
            setattr(cls, name, classmethod(w) if isinstance(attr, classmethod) else w)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- collection ------------------------------------------------------

    def take(self):
        """(spans, hook_time, counts) of the pass just run; buffers are reset."""
        out = (list(self.spans), dict(self.hook_time), Counter(self.counts))
        self.spans.clear()
        self.hook_time.clear()
        self.counts.clear()
        return out


# -- hooks: exact size counters, run outside the span they follow --------


def _dim_sum(t, args, result):
    t.counts["algebra.dim_sum"] += result.dim


def _radical_dim(t, args, result):
    if t.first_time("radical", args[0]):
        t.counts["algebra.radical_dim_sum"] += len(result)


def _idempotents(t, args, result):
    if t.first_time("idempotents", args[0]):
        t.counts["algebra.idempotent_count"] += len(result)


def _resolution(t, args, result):
    t.counts["homology.resolution_rank_sum"] += sum(result.ranks)
    t.counts["homology.resolution_degree_sum"] += result.degree_reached


def _ledger(t, args, result):
    t.counts["triangular.ledger_entries"] += len(result["mstar_ledger"])


def _mul_vec(t, args, result):
    m = args[0]
    t.counts["linalg.mul_vec_cells"] += m.rows * m.cols
    key = ("nnz", id(m))
    if key not in t._seen:
        t._seen[key] = (m, sum(1 for row in m.data for x in row if x != 0))
    t.counts["linalg.mul_vec_nonzeros"] += t._seen[key][1]


def _rref(t, args, result):
    m = args[0]
    t.counts["linalg.rref_cells"] += m.rows * m.cols


HOOKS = {
    "algebra.algebra_from_category": _dim_sum,
    "algebra.radical": _radical_dim,
    "algebra.primitive_idempotents": _idempotents,
    "homology.projective_resolution": _resolution,
    "classify.explain": _ledger,
    "linalg.Matrix.mul_vec": _mul_vec,
    "linalg.Matrix.rref": _rref,
}


# -- derivation ------------------------------------------------------------


def _layer(name):
    return name.split(".", 1)[0]


def self_times(spans, hook_time=None):
    """Each span's duration minus the time its direct children (and hooks
    run on its behalf) cover."""
    covered = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    for parent, t in (hook_time or {}).items():
        if parent >= 0:
            covered[parent] += t
    return [(t1 - t0) - covered[i] for i, (_, t0, t1, _, _) in enumerate(spans)]


def function_times(spans, selfs, named):
    """Time per span name, where a span whose name is not in `named` and
    whose parent is in the same layer hands its self time to the parent's
    owner.  So a named function reports its own work plus that of the
    unnamed helpers of its layer it calls, but not that of other named
    functions or other layers."""
    owner = [None] * len(spans)
    totals = defaultdict(float)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name in named or parent < 0 or _layer(spans[parent][0]) != _layer(name):
            owner[i] = name
        else:
            owner[i] = owner[parent]
        totals[owner[i]] += selfs[i]
    return totals


def pass_metrics(spans, hook_time, counts, pairs, cli_classify_calls):
    """The per-layer metrics of one traced pass (trace.overhead_s aside)."""
    selfs = self_times(spans, hook_time)
    calls = Counter(name for name, *_ in spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for (name, *_), s in zip(spans, selfs):
        key = f"{_layer(name)}.self_s"
        if key in out:
            out[key] += s
    named = set(FUNCTION_METRICS.values())
    by_function = function_times(spans, selfs, named)
    for metric, span in FUNCTION_METRICS.items():
        out[metric] = by_function.get(span, 0.0)

    out["category.is_ei_calls_per_pair"] = calls["category.is_ei"] / pairs
    out["classify.calls_per_pair"] = calls["classify.classify"] / pairs
    out["homology.resolution_calls_per_pair"] = calls["homology.projective_resolution"] / pairs
    out["freeness.unfactorizables_calls_per_classify"] = (
        calls["freeness.unfactorizables"] / cli_classify_calls if cli_classify_calls else 0)
    out["linalg.mul_vec_calls"] = calls["linalg.Matrix.mul_vec"]
    out["linalg.rref_calls"] = calls["linalg.Matrix.rref"]
    out["linalg.subspace_calls"] = calls["linalg.Subspace.__init__"]
    out["linalg.coords_calls"] = calls["linalg.Subspace.coords"]
    out["linalg.matrix_builds"] = calls["linalg.Matrix.__init__"]
    cells = counts["linalg.mul_vec_cells"]
    out["linalg.mul_vec_cells"] = cells
    out["linalg.mul_vec_density"] = counts["linalg.mul_vec_nonzeros"] / cells if cells else 0
    for name in ("linalg.rref_cells", "triangular.ledger_entries", "algebra.dim_sum",
                 "algebra.radical_dim_sum", "algebra.idempotent_count",
                 "homology.resolution_rank_sum", "homology.resolution_degree_sum"):
        out[name] = counts[name]
    out["trace.spans"] = len(spans)
    return out
