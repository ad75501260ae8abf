"""Ground-truth homological computations: minimal projective resolutions, Ext
dimensions, self-injective and global dimension with explicit cap semantics.

Resolutions cover by sums of principal projectives A·f over
`primitive_idempotents(a)`.  A syzygy stays a subspace of its projective,
acted on by the product of the algebra.

A module is anything with `dim` and `products(us, vs)`, which returns
[u.v for u in us for v in vs] for coefficient vectors u of the algebra and v
of the module.  Three things provide it: the algebra itself, as its own
regular module (`FiniteDimAlgebra.products`); a `ModuleRep`, through its
action matrices; and `top_module(a)`, A / rad A acted on by the product.
gldim and pd are the length of a resolution that `_check_minimal` finds
minimal, and id is read from Ext into the algebra, so the oracle builds no
action matrix."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .algebra import (
    AlgebraError,
    FiniteDimAlgebra,
    memoised,
    opposite,
    primitive_idempotents,
    radical,
    top_module,
)
from .linalg import Matrix, Subspace, unit_vector


class ZaksViolation(AlgebraError):
    pass


@dataclass
class DimensionVerdict:
    """A homological dimension: an exact integer, or ">cap", which proves it
    is larger than the cap but not that it is infinite.  id is read from
    Ext^0..Ext^{cap+1} into A (exact once Ext^{cap+1} = 0, as the top holds
    every simple); pd, and gldim = pd(top), from the length of a resolution
    through P_{cap+1} checked to be minimal (`_length_verdict`)."""

    value: object  # int or the string ">cap"
    cap: int

    @property
    def finite(self):
        return isinstance(self.value, int)

    def __eq__(self, other):
        if isinstance(other, DimensionVerdict):
            return self.value == other.value
        return self.value == other

    def __repr__(self):
        return f"DimensionVerdict({self.value!r}, cap={self.cap})"

    def to_json(self):
        return self.value

    @classmethod
    def of(cls, n, cap):  # n, or ">cap" for any n > cap
        return cls(n if n <= cap else ">%d" % cap, cap)


@memoised
def _principal_data(a: FiniteDimAlgebra):
    """Per idempotent f: (f vector, A·f as a Subspace of A, coordinates of
    the generator f itself in it)."""
    f = a.field
    units = [unit_vector(f, a.dim, i) for i in range(a.dim)]
    out = []
    for e in primitive_idempotents(a):
        sub = Subspace(f, a.dim, a.products(units, [e]))
        gen = sub.coords(e)
        if gen is None:
            raise AlgebraError("idempotent outside its own principal module")
        out.append((e, sub, gen))
    return out


@dataclass
class ResolutionTrace:
    """A projective resolution ... -> P_1 -> P_0 -> M -> 0 up to a cap.

    gens[i] lists, per generator of P_i, the index of its idempotent block;
    covers[0] maps P_0 onto M and covers[i], i >= 1, is the k-linear matrix
    of the boundary P_i -> P_{i-1}.  repeat is (k, period) when degree k
    left the same state as degree k - period (`projective_resolution`):
    every degree after k then equals the one `period` before it, and was
    copied, not computed; None only when no state repeated within the
    length, as when the trace finished."""

    gens: list
    covers: list
    kernel_dims: list
    degree_reached: int
    finished: bool
    repeat: tuple | None = None

    @property
    def ranks(self):
        return [len(g) for g in self.gens]

    def verify(self, a):
        """Exactness: boundaries compose to zero and the rank of each equals
        the kernel dimension it covers; minimality over a (`_check_minimal`)."""
        for i in range(1, len(self.covers)):
            if not (self.covers[i - 1] * self.covers[i]).is_zero():
                raise AlgebraError(f"boundary composition nonzero at degree {i}")
            if self.covers[i].rank() != self.kernel_dims[i - 1]:
                raise AlgebraError(f"image != kernel at degree {i - 1}")
        _check_minimal(a, self)
        return True


def _check_minimal(a, trace):
    """Raise unless each boundary lands in the radical: every column of
    covers[i], i >= 1, cut into the blocks A·f of P_{i-1} and lifted to A,
    lies in radical(a).  Degrees past a repeat are copies, so not walked.
    Hom(P, top) then has zero differentials, and pd is the length."""
    data, rad = _principal_data(a), Subspace(a.field, a.dim, radical(a))
    for i in range(1, trace.repeat[0] + 1 if trace.repeat else len(trace.covers)):
        blocks = _blocks(data, trace.gens[i - 1])
        for column in trace.covers[i].transpose().data:
            for sub, lo, hi in blocks:
                segment = column[lo:hi]
                if any(segment) and not rad.contains(sub.from_coords(segment)):
                    raise AlgebraError(f"the boundary of degree {i} leaves the radical")


def _minimal_generators(a, vectors, act, data):
    """Generators g = f_idx.v of the module spanned by `vectors`, as (idx,
    the cover columns w.g over the basis w of A·f_idx); `act(us, vs)` is
    [u.v for u in us for v in vs].  Greedy over the submodule generated so
    far, so no generator is redundant at the time it is added; as
    A.g = (A·f_idx).g, the columns span what g generates."""
    f = a.field
    n = len(vectors[0])
    span = Subspace(f, n, act(radical(a), vectors))
    idempotents = [e for e, _, _ in data]
    kept = []
    for x in vectors:
        if span.contains(x):
            continue
        for idx, v in enumerate(act(idempotents, [x])):
            if not any(v) or span.contains(v):
                continue
            columns = act(data[idx][1].basis, [v])
            kept.append((idx, columns))
            span = Subspace(f, n, span.basis + columns)
            if span.contains(x):
                break
        if not span.contains(x):
            raise AlgebraError("generator not covered by idempotent components")
    return kept


def _blocks(data, idxs):
    """(A·f_idx, start, end) of each summand of ⊕ A·f_idx over idxs."""
    offsets = [0, *accumulate(data[idx][1].dim for idx in idxs)]
    return [(data[idx][1], lo, hi) for idx, lo, hi in zip(idxs, offsets, offsets[1:])]


def _projective_action(a, data, idxs):
    """act(us, vs) = [u.v for u in us for v in vs] on ⊕ A·f_idx over idxs, in
    summand coordinates: summand by summand, the nonzero segments of vs as
    elements of A through `FiniteDimAlgebra.products`, read back at the
    pivots of the left ideal A·f_idx; an all-zero segment stays zero."""
    summands = _blocks(data, idxs)

    def act(us, vs):
        out = [[a.field.zero] * summands[-1][2] for _ in range(len(us) * len(vs))]
        for sub, lo, hi in summands:
            live = [j for j, v in enumerate(vs) if any(v[lo:hi])]
            if not live:
                continue
            products = iter(a.products(us, [sub.from_coords(vs[j][lo:hi]) for j in live]))
            for row in range(0, len(out), len(vs)):
                for j in live:
                    w = next(products)
                    out[row + j][lo:hi] = [w[pc] for pc in sub.pivots]
        return out

    return act


def projective_resolution(a: FiniteDimAlgebra, m, length) -> ResolutionTrace:
    """Projective resolution of the module m (the algebra, a `ModuleRep` or
    `top_module(a)`; see the module docstring) by principal projectives,
    computing P_0 .. P_length.  The generators are searched for in the order
    of the spanning vectors, so the resolution is a function of its input.

    Ω^{k+1} is the rref basis of the kernel of the cover of degree k, inside
    P_k = ⊕ A·f over gens[k] (`_projective_action`), so each cover of
    degree k >= 1 is the boundary P_k -> P_{k-1}.  That basis and gens[k]
    fix all that follows.  So when they equal those of an earlier degree i,
    every degree after k repeats the one period = k - i before it: those are
    copied, and the trace records repeat = (k, period).  Only the states'
    keys are kept."""
    data = _principal_data(a)
    f = a.field
    vectors = [unit_vector(f, m.dim, i) for i in range(m.dim)]
    act = m.products
    gens, covers, kernel_dims = [], [], []
    finished, repeat = False, None
    seen = {}  # (gens, kernel basis) of each degree computed -> the degree
    for deg in range(length + 1):
        if not vectors:  # m is the zero module
            finished = True
            break
        kept = _minimal_generators(a, vectors, act, data)
        gens.append([idx for idx, _ in kept])
        cover = Matrix.from_columns(f, [c for _, columns in kept for c in columns],
                                    rows=len(vectors[0]))
        covers.append(cover)
        kernel = cover.kernel_basis()
        kernel_dims.append(len(kernel))
        if not kernel:
            finished = True
            break
        vectors = Subspace(f, cover.cols, kernel).basis
        key = (tuple(gens[-1]), tuple(map(tuple, vectors)))
        if key in seen:
            repeat = (deg, deg - seen[key])
            break
        seen[key] = deg
        act = _projective_action(a, data, gens[-1])
    if repeat is not None:
        for deg in range(repeat[0] + 1, length + 1):
            for seq in (gens, covers, kernel_dims):
                seq.append(seq[deg - repeat[1]])
    # degree_reached: the last degree with a P_i, or 0 if m = 0
    return ResolutionTrace(gens, covers, kernel_dims, max(len(gens) - 1, 0), finished, repeat)


def ext_dims(a: FiniteDimAlgebra, n, m, cap: int):
    """dim Ext^i(n, m) for i = 0..cap via the Hom complex of the projective
    resolution of n through P_{cap+1} (`projective_resolution`, whose
    repeated tail gives its Ext ranks by copy); each of n and m is the
    algebra, a `ModuleRep` or `top_module(a)`."""
    trace = projective_resolution(a, n, cap + 1)
    return ext_dims_from_trace(a, trace, m, cap)


def ext_dims_from_trace(a, trace, m, cap):
    """dim Ext^i(M, m) for i = 0..cap from a resolution of M through
    P_{cap+1}: P = 0 past the end of a finished trace, and a shorter
    unfinished one is extended by its repeat or refused.  Hom(A·f, m) is
    f·m, the span of f times the unit vectors of m.  When the trace
    repeats from degree k with some period, the differential
    Hom(P_i, m) -> Hom(P_{i+1}, m) for i >= k is the one `period` degrees
    before it, so its rank is copied, not computed."""
    f, data = a.field, _principal_data(a)
    gens = list(trace.gens)
    if not trace.finished and len(gens) < cap + 2:
        if trace.repeat is None:
            raise AlgebraError(f"the resolution ends at degree {len(gens) - 1}, before "
                               f"degree {cap + 1}, and does not repeat")
        while len(gens) < cap + 2:
            gens.append(gens[-trace.repeat[1]])
    gens += [[] for _ in range(cap + 2 - len(gens))]
    units = [unit_vector(f, m.dim, t) for t in range(m.dim)]
    homs = [Subspace(f, m.dim, m.products([e], units)) for e, _, _ in data]
    hom_dims = [sum(homs[idx].dim for idx in gens[i]) for i in range(cap + 2)]
    start, period = trace.repeat or (cap + 1, 0)

    ranks = []
    for i in range(cap + 1):
        if i >= start:  # d^i lies in the repeated tail
            ranks.append(ranks[i - period])
            continue
        if not gens[i] or not gens[i + 1]:
            ranks.append(0)
            continue
        boundary = trace.covers[i + 1]
        targets = _blocks(data, gens[i])
        # column (l, w) of the differential, one segment per block of rows
        columns = [[] for idxl in gens[i] for _ in homs[idxl].basis]
        for idxp, (_, plo, phi) in zip(gens[i + 1], _blocks(data, gens[i + 1])):
            # image in P_i of the generator f of this block of P_{i+1}
            x = [f.zero] * boundary.cols
            x[plo:phi] = data[idxp][2]
            v = boundary.mul_vec(x)
            k = 0
            for idxl, (sub, lo, hi) in zip(gens[i], targets):  # v lifted to A per block
                for w in m.products([sub.from_coords(v[lo:hi])], homs[idxl].basis):
                    co = homs[idxp].coords(w)
                    if co is None:
                        raise AlgebraError("Hom differential leaves its block")
                    columns[k] += co
                    k += 1
        height = sum(homs[idxp].dim for idxp in gens[i + 1])
        ranks.append(Matrix.from_columns(f, columns, rows=height).rank() if height else 0)

    return [hom_dims[i] - ranks[i] - (ranks[i - 1] if i else 0) for i in range(cap + 1)]


@memoised
def _top_resolution(a, length):
    return projective_resolution(a, top_module(a), length)


def _length_verdict(a, trace, cap):
    """pd, with ">cap" semantics, of what a trace through P_{cap+1} (or
    further) resolves: its length, once `_check_minimal` passes."""
    _check_minimal(a, trace)
    return DimensionVerdict.of(trace.degree_reached if trace.finished else cap + 1, cap)


def injective_dimension(a: FiniteDimAlgebra, side: str, cap: int) -> DimensionVerdict:
    """Self-injective dimension of the regular module on the given side,
    measured as max{i : Ext^i(top, A) != 0}, the algebra acting as its own
    regular module, from Ext through degree cap + 1."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    b = a if side == "left" else opposite(a)
    ext = ext_dims_from_trace(b, _top_resolution(b, cap + 2), b, cap + 1)
    return DimensionVerdict.of(max((i for i, e in enumerate(ext) if e), default=0), cap)


def projective_dimension(a: FiniteDimAlgebra, m, cap: int) -> DimensionVerdict:
    """pd m (`_length_verdict`); m is the algebra, a `ModuleRep` or the top."""
    return _length_verdict(a, projective_resolution(a, m, cap + 1), cap)


def global_dimension(a: FiniteDimAlgebra, cap: int) -> DimensionVerdict:
    """pd of the top, which holds every simple (`_length_verdict`), on the
    top resolution that the left `injective_dimension` reads."""
    return _length_verdict(a, _top_resolution(a, cap + 2), cap)


@dataclass
class GorensteinVerdict:
    gorenstein: bool  # within cap on both sides
    left: DimensionVerdict
    right: DimensionVerdict
    cap: int

    def to_json(self):
        return {"gorenstein": self.gorenstein, "left": self.left.to_json(),
                "right": self.right.to_json(), "cap": self.cap}


def is_gorenstein_oracle(a: FiniteDimAlgebra, cap: int) -> GorensteinVerdict:
    """Both one-sided self-injective dimensions; when both are finite they
    must agree, else the computation itself is broken."""
    left = injective_dimension(a, "left", cap)
    right = injective_dimension(a, "right", cap)
    if left.finite and right.finite and left.value != right.value:
        raise ZaksViolation(f"id mismatch: left {left.value}, right {right.value}")
    return GorensteinVerdict(left.finite and right.finite, left, right, cap)
