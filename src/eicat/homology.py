"""Ground-truth homological computations: minimal projective resolutions, Ext
dimensions, self-injective and global dimension with explicit cap semantics.

Resolutions cover by sums of principal projectives A·f over
`primitive_idempotents(a)`.  A syzygy stays a subspace of its projective,
acted on by the product of the algebra.  Its radical part rad(A)·Ω is
spanned by the action of the generators of rad A mod rad² A alone
(`_minimal_generators`).

A module is anything with `dim` and `int_products(us, vs)`, which returns
[u.v for u in us for v in vs] for the sparse int rows (`Field.to_ints`: the
nonzero entries only, reduced mod p in characteristic p) u of the algebra
and v of the module.  Three things in the package provide it: the algebra
itself, as its own regular module (`FiniteDimAlgebra.int_products`);
`top_module(a)`, A / rad A acted on by the product; and each projective
P_k = ⊕ A·f of a resolution, a `_Sum` of left ideals.  The tests' reference
modules by action matrices (`tests/modules.py`) provide it too.  Vectors
are int rows throughout, the one vector form of `Subspace` and the
products.  A vector of a direct sum is cut into its parts (`_Sum.cut`),
never sliced densely, and put back (`_Sum.put`) in one place, for the
action, the minimality check and the Hom complex alike.  The idempotents
are the int rows of `primitive_idempotents(a)`, memoised on the algebra
with A·f and f·A (`_one_sided_ideals`): A·f is the left side's principal
projective and the right side's Hom target, f·A the other way round, and
the opposite algebra is seeded with them.  The covers of a
`ResolutionTrace` are held as int views (`Matrix.from_int_columns`), and
Fractions appear only where a cover is read, as `verify` composes them,
and in the verdicts.  gldim and pd are the length of a resolution once it
is checked (`_length_verdict`).  So is id on a side whose top resolution
finishes, as gldim A = n < oo gives id = n (proved at
`injective_dimension`); a side that does not finish reads id from Ext into
the algebra.  The oracle builds no action matrix."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import lcm

from .algebra import (
    AlgebraError,
    FiniteDimAlgebra,
    TopModule,
    _one_sided_ideals,
    _radical_generators,
    memoised,
    opposite,
    top_module,
)
from .linalg import Matrix, Subspace, unit_rows


class ZaksViolation(AlgebraError):
    pass


@dataclass
class DimensionVerdict:
    """A homological dimension: an exact integer, or ">cap", which proves it
    is larger than the cap but not that it is infinite.  pd, gldim = pd(top),
    and id where the top resolution finishes, are the length of a resolution
    through P_{cap+1} checked to be minimal (`_length_verdict`); id where it
    does not is read from Ext^0..Ext^{cap+1} into A, exact once Ext^{cap+1}
    = 0 (`injective_dimension`)."""

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
    """Per idempotent f of `primitive_idempotents`: (f, A·f as a Subspace
    of A, from `_one_sided_ideals`, coordinates of the generator f itself in
    it)."""
    out = []
    for e, sub, _ in _one_sided_ideals(a):
        gen = sub.int_coords(e)
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
        """Exactness, read from the covers themselves: covers[0] is onto;
        for each i >= 1 the boundary composes to zero with covers[i - 1] and
        its rank is the kernel dimension of covers[i - 1]; every kernel_dims
        entry is the kernel dimension of its cover; the last cover of a
        finished trace is injective.  Then minimality over a
        (`_check_minimal`)."""
        ranks = [cover.rank() for cover in self.covers]
        if self.covers and ranks[0] != self.covers[0].rows:
            raise AlgebraError("the cover of degree 0 is not onto")
        for i, cover in enumerate(self.covers):
            kernel = cover.cols - ranks[i]
            if self.kernel_dims[i] != kernel:
                raise AlgebraError(f"kernel_dims[{i}] = {self.kernel_dims[i]}, but the kernel "
                                   f"of degree {i} has dimension {kernel}")
            if i + 1 < len(self.covers):
                if not (cover * self.covers[i + 1]).is_zero():
                    raise AlgebraError(f"boundary composition nonzero at degree {i + 1}")
                if ranks[i + 1] != kernel:
                    raise AlgebraError(f"image != kernel at degree {i}")
            elif self.finished and kernel:
                raise AlgebraError(f"the last boundary, of degree {i}, is not injective")
        _check_minimal(a, self)
        return True


def _check_minimal(a, trace):
    """Raise unless each boundary lands in the radical: each part in A of
    each column of covers[i], i >= 1, cut along the summands A·f of P_{i-1}
    (`_Sum.cut`), lies in radical(a).  Degrees past a repeat are copies,
    so not walked.  Hom(P, top) then has zero differentials, and pd is the
    length.  The columns are read from the int view of the cover."""
    data, rad = _principal_data(a), top_module(a).space.sub
    for i in range(1, trace.repeat[0] + 1 if trace.repeat else len(trace.covers)):
        total = _Sum(a, [data[idx][1] for idx in trace.gens[i - 1]])
        columns, scale = trace.covers[i]._sparse_view()
        for nonzeros in columns:
            if not all(map(rad.int_contains, total.cut(nonzeros, scale).values())):
                raise AlgebraError(f"the boundary of degree {i} leaves the radical")


def _minimal_generators(a, n, vectors, act, data, semisimple=False):
    """Generators g = f_idx.v of the module Ω spanned by `vectors`, int rows
    of k^n, as (idx, the cover columns w.g over the basis w of A·f_idx);
    `act(us, vs)` is [u.v for u in us for v in vs].  Greedy over the
    submodule generated so far, starting from J·Ω, J = rad A (from 0 when Ω
    is `semisimple`, as the top A/J is: J·(A/J) = 0, J being a two-sided
    ideal, which `radical` verifies), so no generator is redundant at the
    time it is added; as A.g = (A·f_idx).g,
    the columns span what g generates.  Vectors, generators and columns are
    int rows, and one span grows (`Subspace.int_extend`).

    J·Ω is spanned by X·vectors, X = `_radical_generators(a)`: J = span X + J²
    gives J = span X + X·J + J^k for every k, by putting span X + J² for
    the leftmost factor of J^k, and J^k = 0 for k large; so J = X·A, and
    J·Ω = X·A·Ω = X·Ω, as Ω is a submodule."""
    span = Subspace(a.field, n, () if semisimple else act(_radical_generators(a), vectors))
    idempotents = [e for e, _, _ in data]
    kept = []
    for x in vectors:
        if span.int_contains(x):
            continue
        for idx, v in enumerate(act(idempotents, [x])):
            if not v[0] or span.int_contains(v):
                continue
            columns = act(data[idx][1].int_basis, [v])
            kept.append((idx, columns))
            span = span.int_extend(columns)
            if span.int_contains(x):
                break
        else:
            raise AlgebraError("generator not covered by idempotent components")
    return kept


class _Sum:
    """The direct sum of the subspaces `subs` of a module of a, in summand
    coordinates: those of the rref basis of each summand in turn (`_owner`
    gives the summand of each).  A vector of the sum is `cut` into its
    parts, each lifted to the module, and parts are `put` back, read at
    their summand's pivots (`_places`).  A sum of left ideals A·f is a
    module like the algebra and the top (`int_products`)."""

    def __init__(self, a, subs):
        self.algebra, self.subs = a, subs
        self._owner = [(b, j) for b, sub in enumerate(subs) for j in range(sub.dim)]
        self.dim = len(self._owner)
        starts = accumulate((sub.dim for sub in subs), initial=0)
        self._places = [{c: lo + r for r, c in enumerate(sub.pivots)}
                        for sub, lo in zip(subs, starts)]

    def cut(self, entries, den):
        """{summand: its part, lifted to an int row of the module} of the
        vector of the sum with the nonzero (coordinate, value) `entries`
        over `den`; a summand where the vector is zero is left out."""
        owner, parts = self._owner, {}
        for i, x in entries:
            b, j = owner[i]
            parts.setdefault(b, {})[j] = x
        return {b: self.subs[b].int_from_coords((w, den)) for b, w in parts.items()}

    def put(self, parts):
        """The vector of the sum with the parts {summand: an int row of the
        module in it}, each read at its summand's pivots, over the lcm of
        their denominators; a single part keeps its own, and a zero one is
        returned as it is."""
        if len(parts) == 1:
            ((b, (w, den)),) = parts.items()
            place = self._places[b]
            return ({place[c]: x for c, x in w.items() if c in place} if w else w), den
        den, row = lcm(*(d for _, d in parts.values())), {}
        for b, (w, d) in parts.items():
            place, k = self._places[b], den // d
            row.update({place[c]: x * k for c, x in w.items() if c in place})
        return row, den

    def int_products(self, us, vs):
        """[u.v for u in us for v in vs] on int rows, u in A and v in a sum
        of left ideals A·f: the nonzero parts of vs go through one
        `FiniteDimAlgebra.int_products` call and each product is put back in
        its summand; a zero part stays zero, unmultiplied."""
        parts = [self.cut(w.items(), den) for w, den in vs]
        products = iter(self.algebra.int_products(us, [x for p in parts for x in p.values()]))
        return [self.put(dict(zip(p, products))) for _ in us for p in parts]


def projective_resolution(a: FiniteDimAlgebra, m, length) -> ResolutionTrace:
    """Projective resolution of the module m (the algebra, `top_module(a)`
    or any other module; see the module docstring) by principal projectives,
    computing P_0 .. P_length.  The generators are searched for in the order
    of the spanning vectors, so the resolution is a function of its input.

    Ω^{k+1} is the rref basis of the kernel of the cover of degree k, inside
    the module P_k = ⊕ A·f over gens[k] (`_Sum.int_products`), so each
    cover of degree k >= 1 is the boundary P_k -> P_{k-1}.  That basis and
    gens[k] fix all that follows.  So when they equal those of an earlier degree i,
    every degree after k repeats the one period = k - i before it: those are
    copied, and the trace records repeat = (k, period).  Only the states'
    keys are kept."""
    data = _principal_data(a)
    n = m.dim
    vectors = unit_rows(n)
    act = m.int_products
    gens, covers, kernel_dims = [], [], []
    finished, repeat = False, None
    seen = {}  # (gens, kernel echelon) of each degree computed -> the degree
    semisimple = isinstance(m, TopModule) and m.algebra is a
    for deg in range(length + 1):
        if not vectors:  # m is the zero module
            finished = True
            break
        kept = _minimal_generators(a, n, vectors, act, data, semisimple and not deg)
        gens.append([idx for idx, _ in kept])
        cover = Matrix.from_int_columns(a.field, [c for _, columns in kept for c in columns], n)
        covers.append(cover)
        kernel = cover.null_space()
        kernel_dims.append(kernel.dim)
        if not kernel.dim:
            finished = True
            break
        n, vectors = cover.cols, kernel.int_basis
        key = (tuple(gens[-1]), tuple(tuple(sorted(w.items())) for w, _ in vectors))
        if key in seen:
            repeat = (deg, deg - seen[key])
            break
        seen[key] = deg
        act = _Sum(a, [data[idx][1] for idx in gens[-1]]).int_products
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
    algebra, `top_module(a)` or any other module."""
    _check_cap(cap)
    trace = projective_resolution(a, n, cap + 1)
    return ext_dims_from_trace(a, trace, m, cap)


def ext_dims_from_trace(a, trace, m, cap):
    """dim Ext^i(M, m) for i = 0..cap from a resolution of M through
    P_{cap+1}: P = 0 past the end of a finished trace, and a shorter
    unfinished one is extended by its repeat or refused.  Hom(A·f, m) is
    f·m, the span of f times the unit vectors of m.  When the trace
    repeats from degree k with some period, the differential
    Hom(P_i, m) -> Hom(P_{i+1}, m) for i >= k is the one `period` degrees
    before it, so its rank is copied, not computed.  The image of the
    generator f_p of P_{i+1} is cut along the summands of P_i (`_Sum.cut`).
    Its part x in summand l lies in f_p·A, as x = f_p.x, checked once per
    pair of summands; so each x.w, w in the basis of f_l·m, lies in f_p·m,
    and column (l, w) is put in ⊕ f_p·m (`_Sum.put`).  An image with no
    part in l gets no lift, no check and no product there, and a summand l
    where no image has a part gives only zero columns, which are left out."""
    f, data = a.field, _principal_data(a)
    gens = list(trace.gens)
    if not trace.finished and len(gens) < cap + 2:
        if trace.repeat is None:
            raise AlgebraError(f"the resolution ends at degree {len(gens) - 1}, before "
                               f"degree {cap + 1}, and does not repeat")
        while len(gens) < cap + 2:
            gens.append(gens[-trace.repeat[1]])
    gens += [[] for _ in range(cap + 2 - len(gens))]
    ideals = _hom_spaces(a, a)  # f·A, also Hom(A·f, m) for m = a
    homs = ideals if m is a else _hom_spaces(a, m)
    hom_dims = [sum(homs[idx].dim for idx in gens[i]) for i in range(cap + 2)]
    start, period = trace.repeat or (cap + 1, 0)

    ranks, sources = [], _Sum(a, [data[idx][1] for idx in gens[0]])
    for i in range(cap + 1):
        if i >= start:  # d^i lies in the repeated tail
            ranks.append(ranks[i - period])
            continue
        targets, sources = sources, _Sum(a, [data[idx][1] for idx in gens[i + 1]])
        images = []
        for p, idx in enumerate(gens[i + 1]):
            v, den = trace.covers[i + 1].int_mul_vec(sources.put({p: data[idx][0]}))
            images.append(targets.cut(v.items(), den))
        homs_sum = _Sum(a, [homs[idx] for idx in gens[i + 1]])
        columns = []
        for l, idxl in enumerate(gens[i]):
            hits = {p: parts[l] for p, parts in enumerate(images) if l in parts}
            if not hits:
                continue
            if not all(ideals[gens[i + 1][p]].int_contains(x) for p, x in hits.items()):
                raise AlgebraError("Hom differential leaves its block")
            basis = homs[idxl].int_basis
            products = m.int_products(list(hits.values()), basis)
            columns += [homs_sum.put(dict(zip(hits, products[t::len(basis)])))
                        for t in range(len(basis))]
        ranks.append(Subspace(f, homs_sum.dim, columns).dim)

    return [hom_dims[i] - ranks[i] - (ranks[i - 1] if i else 0) for i in range(cap + 1)]


def _hom_spaces(a, m):
    """Hom(A·f, m) = f·m for each idempotent f: for m = a the f·A of
    `_one_sided_ideals` (on an opposite, the A·f seeded from its algebra),
    else the span of f times the unit vectors of m."""
    if m is a:
        return [right for _, _, right in _one_sided_ideals(a)]
    units = unit_rows(m.dim)
    return [Subspace(a.field, m.dim, m.int_products([e], units))
            for e, _, _ in _one_sided_ideals(a)]


@memoised
def _top_resolution(a, length):
    return projective_resolution(a, top_module(a), length)


def _check_cap(cap):
    if cap < 0:
        raise ValueError(f"the cap must be >= 0, got {cap}")


def _length_verdict(a, trace, cap):
    """pd, with ">cap" semantics, of what a trace through P_{cap+1} (or
    further) resolves: its length, once `verify` passes on a finished
    trace and `_check_minimal` on one that is not."""
    if trace.finished:
        trace.verify(a)
    else:
        _check_minimal(a, trace)
    return DimensionVerdict.of(trace.degree_reached if trace.finished else cap + 1, cap)


def injective_dimension(a: FiniteDimAlgebra, side: str, cap: int) -> DimensionVerdict:
    """Self-injective dimension of the regular module on the given side,
    max{i : Ext^i(top, A) != 0} as the top holds every simple.  A side
    whose top resolution does not finish reads it from Ext into A through
    degree cap + 1, exact once Ext^{cap+1} = 0.

    A side whose top resolution finishes, at degree n, has id = n = gldim
    A = pd(top), read once the resolution is verified (`global_dimension`).
    (<=) Every module has pd <= n.  (>=) The last boundary d_n is injective
    into rad P_{n-1}.  Were Hom(d_n, A) onto, the split inclusion of P_n in
    some A^r would factor through d_n, so d_n would split, and its image, a
    nonzero summand of P_{n-1}, would lie in the radical.  So
    Ext^n(top, A) != 0."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    _check_cap(cap)
    b = a if side == "left" else opposite(a)
    trace = _top_resolution(b, cap + 2)
    if trace.finished:
        return global_dimension(b, cap)
    ext = ext_dims_from_trace(b, trace, b, cap + 1)
    return DimensionVerdict.of(max((i for i, e in enumerate(ext) if e), default=0), cap)


def projective_dimension(a: FiniteDimAlgebra, m, cap: int) -> DimensionVerdict:
    """pd m (`_length_verdict`); m is the algebra, the top or any module."""
    _check_cap(cap)
    return _length_verdict(a, projective_resolution(a, m, cap + 1), cap)


@memoised
def global_dimension(a: FiniteDimAlgebra, cap: int) -> DimensionVerdict:
    """pd of the top, which holds every simple (`_length_verdict`), on the
    top resolution that the left `injective_dimension` reads; memoised, so
    that resolution is checked once."""
    _check_cap(cap)
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
