"""Ground-truth homological computations: minimal projective resolutions, Ext
dimensions, self-injective and global dimension with explicit cap semantics.

Resolutions cover by sums of principal projectives A·f over
`primitive_idempotents(a)`, read from one table, `_one_sided_ideals(a)`:
(f, A·f, f·A) per idempotent f, memoised on the algebra.  A·f is the left
side's principal projective and f·A = Hom(A·f, A) its Hom target into the
algebra; the opposite algebra is seeded with each pair swapped, so its
table gives the right side's.  A syzygy stays a subspace of its projective,
acted on through the action tables of its summands.  Its radical part
rad(A)·Ω is spanned by the action of the generators of rad A mod rad² A
alone (`_minimal_generators`).

A module is anything with `dim` and `int_products(us, vs)`, which returns
[u.v for u in us for v in vs] for the sparse int rows (`Field.to_ints`: the
nonzero entries only, reduced mod p in characteristic p) u of the algebra
and v of the module.  Three things in the package provide it: the algebra
itself, as its own regular module (`FiniteDimAlgebra.int_products`);
`top_module(a)`, A / rad A acted on by the product; and each projective
P_k = ⊕ A·f of a resolution, a `_Sum`.  The tests' reference modules by
action matrices (`tests/modules.py`) provide it too.  Vectors are int rows
throughout, the one vector form of `Subspace` and the products.  A vector
of P_k stays in summand coordinates, those of the rref basis b_r of each
A·f: each A·f has one memoised coordinate action table (`_projectives`),
e_t·b_r as a combination of the b_s, so the action, the minimality check
and the Hom complex never lift a part of a vector to A.  The covers of a
`ResolutionTrace` are held as int views (`Matrix.from_int_columns`), and
Fractions appear only where a cover is read, as `verify` composes them,
and in the verdicts.  gldim and pd are the length of a resolution once it
is checked (`_length_verdict`).  So is id on a side whose top resolution
finishes, as gldim A = n < oo gives id = n (proved at
`injective_dimension`); a side that does not finish reads id from Ext into
the algebra.  The oracle builds no module by action matrices; its only
tables are those of the A·f."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import lcm
from typing import NamedTuple

from .algebra import (
    AlgebraError,
    FiniteDimAlgebra,
    TopModule,
    _cells,
    _lowest,
    _one_sided_ideals,
    _radical_generators,
    memoised,
    opposite,
    top_module,
)
from .linalg import Matrix, Subspace, _nonzero, unit_rows


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
    """Raise unless each boundary lands in the radical: each column of
    covers[i], i >= 1, read from its int view, has each part sum c_r·b_r in
    a summand A·f of P_{i-1} inside radical(a), that is sum c_r·proj(b_r)
    = 0 in the top, with proj(b_r) memoised per idempotent
    (`_projectives`).  Degrees past a repeat are copies, so not walked.
    Hom(P, top) then has zero differentials, and pd is the length."""
    p = a.field.characteristic
    for i in range(1, trace.repeat[0] + 1 if trace.repeat else len(trace.covers)):
        total = _Sum(a, trace.gens[i - 1])
        columns, _ = trace.covers[i]._sparse_view()
        for column in columns:
            acc = {}
            for j, x in column:
                b, r = total.owner[j]
                for t, y in total.blocks[b].tops.get(r, {}).items():
                    acc[b, t] = acc.get((b, t), 0) + x * y
            if _nonzero(p, acc):
                raise AlgebraError(f"the boundary of degree {i} leaves the radical")


def _minimal_generators(a, n, vectors, act, data, semisimple=False):
    """Generators g = f_idx.v of the module Ω spanned by `vectors`, int rows
    of k^n, as (idx, the cover columns w.g over the basis w of A·f_idx);
    `act(us, vs)` is [u.v for u in us for v in vs], and `data` is the
    table (f, A·f, f·A) of `_one_sided_ideals(a)`.  Greedy over the
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


class _Projective(NamedTuple):
    """A·f in the coordinates of its rref basis b_0, b_1, ... (`_projectives`)."""

    rows: list  # rows[r]: {t: [(s, c)]}, e_t·b_r = sum c·b_s / den, for e_t·b_r != 0
    den: int
    gen: tuple  # f itself, as an int row of these coordinates
    tops: dict  # {r: q}: the b_r outside the radical, proj(b_r) = q over one denominator


@memoised
def _projectives(a):
    """Per idempotent f of `_one_sided_ideals(a)`, its principal projective
    A·f in summand coordinates (`_Projective`).  The action table is built
    from the nonempty cells of the table of A (`_cells`): e_t·b_r lies in
    the left ideal A·f, so its coordinates are its entries at A·f's pivots,
    and only those are read.  For a basis idempotent, such as an identity
    with a trivial Aut(x), the b_r are unit rows and the table is an index
    map.  proj(b_r) is the class of b_r in the top, `int_project`.  The
    opposite builds its own, from its own table, and nothing here refers
    back to the algebra."""
    p = a.field.characteristic
    scale, _ = a._int_mult()
    _, by_column = _cells(a)
    top = top_module(a).space
    out = []
    for e, left, _ in _one_sided_ideals(a):
        basis, place = left.int_basis, {c: s for s, c in enumerate(left.pivots)}
        den = lcm(*(d for _, d in basis))
        rows = []
        for w, d in basis:
            acc, row = {}, {}  # acc: (t, s) -> c
            for j, x in w.items():
                x *= den // d
                for t, pairs in by_column[j]:
                    for k, c in pairs:
                        if (s := place.get(k)) is not None:
                            acc[t, s] = acc.get((t, s), 0) + x * c
            for (t, s), c in _nonzero(p, acc).items():
                row.setdefault(t, []).append((s, c))
            rows.append(row)
        classes = [top.int_project(b) for b in basis]
        k = lcm(*(d for _, d in classes))
        tops = {r: {i: x * (k // d) for i, x in q.items()} for r, (q, d) in enumerate(classes) if q}
        out.append(_Projective(rows, den * scale, left.int_coords(e), tops))
    return out


class _Sum:
    """The direct sum P = ⊕ A·f over the idempotent indices `idxs` (of
    `_one_sided_ideals`), in summand coordinates: those of the rref basis
    of each A·f in turn, coordinate j being row r of summand b
    (`owner[j] = (b, r)`).  A module like the algebra and the top
    (`int_products`), acted on through each summand's table
    (`_projectives`)."""

    def __init__(self, a, idxs):
        projectives = _projectives(a)
        self.blocks = [projectives[idx] for idx in idxs]
        self.p = a.field.characteristic
        self.den = lcm(*(block.den for block in self.blocks))
        self.starts = list(accumulate((len(block.rows) for block in self.blocks), initial=0))
        self.owner = [(b, r) for b, block in enumerate(self.blocks) for r in range(len(block.rows))]
        self._rows = [(row, lo, self.den // block.den)
                      for block, lo in zip(self.blocks, self.starts) for row in block.rows]
        self.dim = len(self.owner)

    def int_products(self, us, vs):
        """[u.v for u in us for v in vs] on int rows, u in A and v in the
        sum, over den du * dv * `den` (1 in characteristic p).  The us are
        indexed by their support once; each nonzero coordinate of v, row r
        of a summand, walks only the (t, e_t·b_r) of its table row that
        some u meets, so no part is lifted to A, and a product the tables
        prove zero is never formed."""
        p, rows = self.p, self._rows
        index = {}  # t -> [(n, the entry of us[n] at t)]
        for n, (u, _) in enumerate(us):
            for t, y in u.items():
                index.setdefault(t, []).append((n, y))
        out = []  # per v, the products u.v in the order of the us
        for v, dv in vs:
            accs = {}  # n -> the entries of us[n].v
            for i, x in v.items():
                row, lo, k = rows[i]
                x *= k
                for t in row.keys() & index.keys():
                    entries = row[t]
                    for n, y in index[t]:
                        if (acc := accs.get(n)) is None:
                            acc = accs[n] = {}
                        xy = x * y
                        for s, c in entries:
                            acc[lo + s] = acc.get(lo + s, 0) + xy * c
            den = dv * self.den
            out.append([(_nonzero(p, accs[n]) if n in accs else {}, 1 if p else du * den)
                        for n, (_, du) in enumerate(us)])
        return [products[n] for n in range(len(us)) for products in out]


def projective_resolution(a: FiniteDimAlgebra, m, length) -> ResolutionTrace:
    """Projective resolution of the module m (the algebra, `top_module(a)`
    or any other module; see the module docstring) by the principal
    projectives A·f of `_one_sided_ideals`, computing P_0 .. P_length.  The
    generators are searched for in the order of the spanning vectors, so the
    resolution is a function of its input.

    Ω^{k+1} is the rref basis of the kernel of the cover of degree k, inside
    the module P_k = ⊕ A·f over gens[k] (`_Sum.int_products`), so each
    cover of degree k >= 1 is the boundary P_k -> P_{k-1}.  That basis and
    gens[k] fix all that follows.  So when they equal those of an earlier degree i,
    every degree after k repeats the one period = k - i before it: those are
    copied, and the trace records repeat = (k, period).  Only the states'
    keys are kept."""
    data = _one_sided_ideals(a)
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
        act = _Sum(a, gens[-1]).int_products
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
    f·m: for m the algebra, the f·A of `_one_sided_ideals`, the table that
    also gives each A·f; for any other m, the span of f times the unit
    vectors of m.  When the trace repeats from degree k with some period,
    the differential Hom(P_i, m) -> Hom(P_{i+1}, m) for i >= k is the one
    `period` degrees before it, so its rank is copied, not computed.

    The image of the generator f_p of P_{i+1} is a vector of P_i in summand
    coordinates, checked to satisfy f_p.x = x through the action tables
    (`_Sum.int_products`), so that its part sum c_r·b_r in each summand l
    lies in f_p·A.  Column (l, w), w in the basis of f_l·m, holds at p
    sum c_r·(b_r.w), read at the pivots of f_p·m: the products b_r.w are
    formed once per call for each idempotent, and no part is lifted to A.
    A summand l where no image has a part gives only zero columns, which
    are left out."""
    f, data = a.field, _one_sided_ideals(a)
    p = f.characteristic
    gens = list(trace.gens)
    if not trace.finished and len(gens) < cap + 2:
        if trace.repeat is None:
            raise AlgebraError(f"the resolution ends at degree {len(gens) - 1}, before "
                               f"degree {cap + 1}, and does not repeat")
        while len(gens) < cap + 2:
            gens.append(gens[-trace.repeat[1]])
    gens += [[] for _ in range(cap + 2 - len(gens))]
    homs = [right if m is a else Subspace(f, m.dim, m.int_products([e], unit_rows(m.dim)))
            for e, _, right in data]
    places = [{c: s for s, c in enumerate(hom.pivots)} for hom in homs]
    hom_dims = [sum(homs[idx].dim for idx in gens[i]) for i in range(cap + 2)]
    start, period = trace.repeat or (cap + 1, 0)

    products, restricted = {}, {}

    def products_of(l, q):
        """Per b_r of A·f_l and basis w of f_l·m, b_r.w at the pivots of
        f_q·m, as (coordinate, value) over one denominator: b_r.w is formed
        once per l, and read at the pivots once per (l, q)."""
        if l not in products:
            basis = homs[l].int_basis
            rows = m.int_products(data[l][1].int_basis, basis)
            k = lcm(*(d for _, d in rows))
            rows = [{j: x * (k // d) for j, x in w.items()} for w, d in rows]
            products[l] = [rows[r:r + len(basis)] for r in range(0, len(rows), len(basis))]
        if (l, q) not in restricted:
            place = places[q]
            restricted[l, q] = [[[(t, y) for j, y in w.items() if (t := place.get(j)) is not None]
                                 for w in row] for row in products[l]]
        return restricted[l, q]

    ranks, sources = [], _Sum(a, gens[0])
    for i in range(cap + 1):
        if i >= start:  # d^i lies in the repeated tail
            ranks.append(ranks[i - period])
            continue
        targets, sources = sources, _Sum(a, gens[i + 1])
        # only the rank is read: so each image keeps its own den, which
        # scales the rows of f_q·m alike in every column, and each column
        # is taken over den 1
        parts = {}  # l -> {q: {r: c}}, the part of the image of f_q in summand l
        for q, (idx, lo) in enumerate(zip(gens[i + 1], sources.starts)):
            w, den = sources.blocks[q].gen
            image = trace.covers[i + 1].int_mul_vec(({lo + r: x for r, x in w.items()}, den))
            if _lowest(p, targets.int_products([data[idx][0]], [image])[0]) != _lowest(p, image):
                raise AlgebraError("Hom differential leaves its block")
            for j, x in image[0].items():
                l, r = targets.owner[j]
                parts.setdefault(l, {}).setdefault(q, {})[r] = x
        starts = list(accumulate((homs[idx].dim for idx in gens[i + 1]), initial=0))
        columns = []
        for l, hits in parts.items():
            accs = [{} for _ in range(homs[gens[i][l]].dim)]
            for q, part in hits.items():
                prods, lo = products_of(gens[i][l], gens[i + 1][q]), starts[q]
                for r, c in part.items():
                    for acc, entries in zip(accs, prods[r]):
                        for t, y in entries:
                            acc[lo + t] = acc.get(lo + t, 0) + c * y
            columns += [(_nonzero(p, acc), 1) for acc in accs]
        ranks.append(Subspace(f, hom_dims[i + 1], columns).dim)

    return [hom_dims[i] - ranks[i] - (ranks[i - 1] if i else 0) for i in range(cap + 1)]


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


def is_gorenstein_oracle(a: FiniteDimAlgebra, cap: int) -> GorensteinVerdict:
    """Both one-sided self-injective dimensions; when both are finite they
    must agree, else the computation itself is broken."""
    left = injective_dimension(a, "left", cap)
    right = injective_dimension(a, "right", cap)
    if left.finite and right.finite and left.value != right.value:
        raise ZaksViolation(f"id mismatch: left {left.value}, right {right.value}")
    return GorensteinVerdict(left.finite and right.finite, left, right, cap)
