"""Command line entry point: validate, classify, freeness, projectivity,
matrix export, homological oracle, and example generation.

Exit codes: 0 success, 1 domain failure, 2 usage or parse failure."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

from .algebra import AlgebraError, FiniteDimAlgebra, algebra_from_category
from .category import CategoryError, category_to_json, presentation_of, validate
from .classify import ClassificationReport, classify, explain
from .families import (
    FamilyError,
    Poset,
    chain_poset,
    corpus,
    diamond_poset,
    group_category,
    poset_category,
    regular_orbit_category,
    stabilized_alpha_category,
    transporter_category,
)
from .freeness import is_free, unfactorizables
from .groups import GroupAction, GroupError, GroupTable, cyclic_group, \
    is_projective_over, morphism_stabilizers, symmetric_group_3
from .homology import DimensionVerdict, GorensteinVerdict, ZaksViolation, \
    global_dimension, is_gorenstein_oracle
from .linalg import Field
from .triangular import mstar_dim, phi_domain_dim

DEFAULT_CAP = 8
DEFAULT_DIM_LIMIT = 64


class DimensionLimitExceeded(AlgebraError):
    pass


def _check_limit(dim: int, limit=None):
    """Refuse an algebra of dimension above `limit` (None: no limit)."""
    if limit is not None and dim > limit:
        raise DimensionLimitExceeded(f"algebra dimension {dim} exceeds limit {limit}")


def _run_oracle(alg: FiniteDimAlgebra, cap: int):
    """(Gorenstein verdict, global dimension) of alg, checked, up to the cap.
    Its callers apply `--limit` before the table is built.  What the oracle
    memoises on the algebra holds no reference back to it, so it is freed
    with the algebra's last reference."""
    alg.validate()
    return is_gorenstein_oracle(alg, cap), global_dimension(alg, cap)


@dataclass
class Comparison:
    """The classifier's report and the oracle's verdicts on one category
    algebra over one field."""

    report: ClassificationReport
    algebra: FiniteDimAlgebra
    verdict: GorensteinVerdict
    gldim: DimensionVerdict

    @property
    def agrees(self):
        """Whether the oracle bears out the classifier's Gorenstein flag.  A
        "not Gorenstein" agrees unless both self-injective dimensions are
        finite; a "Gorenstein" agrees if they are, and is None (unknown) when
        a side is ">cap": that proves the dimension exceeds the cap
        (Ext^{cap+1} != 0), not that it is infinite."""
        if not self.report.gorenstein:
            return not self.verdict.gorenstein
        return True if self.verdict.gorenstein else None


def compare(c, f: Field, cap: int, limit=None) -> Comparison:
    """Classify c over f, then run the oracle (`_run_oracle`) on the algebra of
    the skeletal category the classifier's presentation was read from.  An
    algebra of dimension above `limit` (one basis element per morphism of
    the skeleton) is refused before its d x d table is built."""
    report = classify(c, f)
    skeleton = report.presentation.category
    _check_limit(len(skeleton.morphisms), limit)
    alg = algebra_from_category(skeleton, f)
    return Comparison(report, alg, *_run_oracle(alg, cap))


def sweep(items, chars, cap: int) -> dict:
    """`compare` on every (name, category) of items in every characteristic
    of chars, keyed by (name, char) in item-then-characteristic order."""
    return {(name, ch): compare(c, Field(ch), cap) for name, c in items for ch in chars}


def _field(args):
    try:
        return Field(args.char)
    except ValueError as e:
        raise UsageError(str(e))


class UsageError(Exception):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}")


def _emit(obj, out):
    text = json.dumps(obj, indent=2, sort_keys=False)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise UsageError(f"cannot write {out}: {e}")
    else:
        print(text)


def _load_category(path):
    return validate(_load_json(path))


def cmd_validate(args):
    c = _load_category(args.path)
    from .category import is_ei
    ok, witness = is_ei(c)
    if not ok:
        print(f"NotEI: endomorphism {witness!r} is not an isomorphism")
        return 1
    print(f"ok: {len(c.objects)} objects, {len(c)} morphisms")
    return 0


def cmd_classify(args):
    c = _load_category(args.path)
    f = _field(args)
    report = classify(c, f)
    out = report.to_json()
    if args.explain:
        out["explain"] = explain(c, f, report=report)
    _emit(out, args.out)
    return 0


def cmd_freeness(args):
    c = _load_category(args.path)
    p = presentation_of(c)
    rep = is_free(p)
    out = {
        "free": rep.free,
        "free_from": rep.free_from,
        "counterexample": None if rep.counterexample is None else {
            "morphism": rep.counterexample[0],
            "factorizations": [list(rep.counterexample[1]), list(rep.counterexample[2])],
        },
        "unfactorizables": {f"{i + 1},{j + 1}": v for (i, j), v in unfactorizables(p).items()},
    }
    _emit(out, args.out)
    return 0


def cmd_projectivity(args):
    c = _load_category(args.path)
    p = presentation_of(c)
    f = _field(args)
    ok, witnesses = is_projective_over(p, f)
    out = {"characteristic": f.characteristic, "projective_over_k": ok,
           "witnesses": [
               {"morphism": w,
                "stabilizers": dict(zip(("left", "right"), morphism_stabilizers(p, w)))}
               for w in witnesses]}
    _emit(out, args.out)
    return 0


def cmd_matrix(args):
    c = _load_category(args.path)
    f = _field(args)
    p = presentation_of(c)
    alg = algebra_from_category(p.category, f)
    alg.validate()
    out = alg.to_json()
    out["mstar_dims"] = {str(t): {"dim": mstar_dim(p, t), "cover_dim": phi_domain_dim(p, t)}
                         for t in range(1, p.n)}
    _emit(out, args.out)
    return 0


def cmd_oracle(args):
    for flag, value in (("--cap", args.cap), ("--limit", args.limit)):
        if value < 0:
            raise UsageError(f"{flag} must be >= 0, got {value}")
    raw = _load_json(args.path)
    f = _field(args)
    if isinstance(raw, dict) and "basis" in raw:  # structure constants, as `matrix` emits
        raw = {k: v for k, v in raw.items() if k != "mstar_dims"}
        if isinstance(raw["basis"], list):  # before from_json builds the d x d table
            _check_limit(len(raw["basis"]), args.limit)
        verdict, gldim = _run_oracle(FiniteDimAlgebra.from_json(raw, f), args.cap)
        extra = {}
    else:
        r = compare(validate(raw), f, args.cap, args.limit)
        verdict, gldim, extra = r.verdict, r.gldim, {"agrees": r.agrees}
    out = {"left": verdict.left.to_json(), "right": verdict.right.to_json(),
           "gldim": gldim.to_json(), "cap": args.cap, **extra}
    _emit(out, args.out)
    return 0


_NAMED_POSETS = {
    "diamond": diamond_poset,
    "chain2": lambda: chain_poset(2),
    "chain3": lambda: chain_poset(3),
    "chain4": lambda: chain_poset(4),
    "antichain2": lambda: Poset.from_pairs(["a", "b"], []),
}

_NAMED_GROUPS = {
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z4": lambda: cyclic_group(4),
    "z6": lambda: cyclic_group(6),
    "s3": symmetric_group_3,
}

_NAMED_BISETS = {
    "regular_orbit": regular_orbit_category,
    "stabilized_alpha": stabilized_alpha_category,
}


def cmd_gen(args):
    fam = args.family
    params = args.params
    if fam == "poset":
        if len(params) != 1:
            raise UsageError("gen poset takes one name or poset JSON file")
        p = _NAMED_POSETS[params[0]]() if params[0] in _NAMED_POSETS \
            else Poset.from_json(_load_json(params[0]))
        _emit(category_to_json(poset_category(p)), args.out)
    elif fam == "group":
        if len(params) != 1:
            raise UsageError("gen group takes one name or group JSON file")
        g = _NAMED_GROUPS[params[0]]() if params[0] in _NAMED_GROUPS \
            else GroupTable.from_json(_load_json(params[0]))
        _emit(category_to_json(group_category(g)), args.out)
    elif fam == "transporter":
        if len(params) != 3:
            raise UsageError("gen transporter takes group.json poset.json action.json")
        g = GroupTable.from_json(_load_json(params[0]))
        p = Poset.from_json(_load_json(params[1]))
        a = GroupAction.from_json(_load_json(params[2]))
        _emit(category_to_json(transporter_category(g, p, a)), args.out)
    elif fam == "biset":
        if len(params) != 1 or params[0] not in _NAMED_BISETS:
            raise UsageError(f"gen biset takes one of {sorted(_NAMED_BISETS)}")
        _emit(category_to_json(_NAMED_BISETS[params[0]]()), args.out)
    elif fam == "corpus":
        if args.count < 0:
            raise UsageError(f"--count must be >= 0, got {args.count}")
        outdir = args.out or "corpus"
        items = corpus(seed=args.seed)[:args.count]
        try:
            os.makedirs(outdir, exist_ok=True)
            for name, c in items:
                with open(os.path.join(outdir, f"{name}.json"), "w") as fh:
                    json.dump(category_to_json(c), fh, indent=2)
                    fh.write("\n")
        except OSError as e:
            raise UsageError(f"cannot write {outdir}: {e}")
        print(f"wrote {len(items)} files to {outdir}")
    else:
        raise UsageError(f"unknown family {fam!r}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="eicat",
                                 description="EI category algebra classification toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, char=True, cap=False):
        p.add_argument("path")
        p.add_argument("--out", default=None)
        if char:
            p.add_argument("--char", type=int, default=0)
        if cap:
            p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    common(sub.add_parser("validate", help="check a category JSON file"), char=False)
    pc = sub.add_parser("classify", help="classification report")
    common(pc)
    pc.add_argument("--explain", action="store_true")
    common(sub.add_parser("freeness", help="freeness report"), char=False)
    common(sub.add_parser("projectivity", help="stabilizer-order projectivity test"))
    common(sub.add_parser("matrix", help="export structure constants"))
    po = sub.add_parser("oracle", help="exact homological verdicts")
    common(po, cap=True)
    po.add_argument("--limit", type=int, default=DEFAULT_DIM_LIMIT)
    pg = sub.add_parser("gen", help="generate example categories")
    pg.add_argument("family", choices=["poset", "transporter", "group", "biset", "corpus"])
    pg.add_argument("params", nargs="*")
    pg.add_argument("--out", default=None)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--count", type=int, default=30)
    return ap


_HANDLERS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "freeness": cmd_freeness,
    "projectivity": cmd_projectivity,
    "matrix": cmd_matrix,
    "oracle": cmd_oracle,
    "gen": cmd_gen,
}


@functools.cache
def _parser():
    """The parser of `main`, built on its first call and reused after: a parse
    writes only to the Namespace it returns."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CategoryError, GroupError, AlgebraError, FamilyError, ZaksViolation) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
