"""Ground-truth homological computations: minimal projective resolutions, Ext
dimensions, self-injective and global dimension with explicit cap semantics.

Resolutions cover by direct sums of principal projectives A·f over the
orthogonal idempotent system of the algebra; with a primitive system the
covers are (close to) minimal, which keeps ranks from exploding."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .algebra import (
    AlgebraError,
    FiniteDimAlgebra,
    ModuleRep,
    direct_sum,
    memoised,
    opposite,
    primitive_idempotents,
    radical_submodule_vectors,
    regular_module,
    submodule,
    top_module,
)
from .linalg import Matrix, Subspace, unit_vector


class ZaksViolation(AlgebraError):
    pass


@dataclass
class DimensionVerdict:
    """A homological dimension: an exact integer, or ">cap" when truncation
    at the degree cap cannot rule out further nonvanishing."""

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


@memoised
def _principal_data(a: FiniteDimAlgebra):
    """Per idempotent f: (f vector, basis subspace of A·f, A·f as ModuleRep,
    coordinates of the generator f itself)."""
    f = a.field
    out = []
    for e in primitive_idempotents(a):
        cols = [a.product_vec(unit_vector(f, a.dim, i), e)
                for i in range(a.dim)]
        sub = Subspace(f, a.dim, cols)
        rep, _ = submodule(regular_module(a), sub.basis)
        gen = sub.coords(e)
        if gen is None:
            raise AlgebraError("idempotent outside its own principal module")
        out.append((e, sub, rep, gen))
    return out


@dataclass
class ResolutionTrace:
    """A projective resolution ... -> P_1 -> P_0 -> M -> 0 up to a cap.

    gens[i] lists, per generator of P_i, the index of its idempotent block;
    boundaries[i] is the k-linear matrix of P_{i+1} -> P_i; augmentation maps
    P_0 onto M."""

    gens: list
    dims: list
    boundaries: list
    augmentation: Matrix
    kernel_dims: list
    degree_reached: int
    finished: bool

    @property
    def ranks(self):
        return [len(g) for g in self.gens]

    def verify(self):
        """Exactness certificates: boundaries compose to zero and the rank of
        each boundary equals the kernel dimension it covers."""
        for i in range(len(self.boundaries)):
            prev = self.augmentation if i == 0 else self.boundaries[i - 1]
            if not (prev * self.boundaries[i]).is_zero():
                raise AlgebraError(f"boundary composition nonzero at degree {i + 1}")
            if self.boundaries[i].rank() != self.kernel_dims[i]:
                raise AlgebraError(f"image != kernel at degree {i}")
        return True


def _minimal_generators(a, mod, data, rng):
    """Generators (idempotent index, vector) whose principal covers map onto
    mod; greedy over the submodule generated so far, so no generator is
    redundant at the time it is added."""
    f = a.field
    span = Subspace(f, mod.dim, radical_submodule_vectors(mod))
    # candidates[idx][i] = f_idx . e_i
    candidates = [mod.matrix_of(e).transpose().data for e, _, _, _ in data]
    order = list(range(mod.dim))
    if rng is not None:
        rng.shuffle(order)
    kept = []
    for i in order:
        ei = unit_vector(f, mod.dim, i)
        if span.contains(ei):
            continue
        for idx, columns in enumerate(candidates):
            v = columns[i]
            if all(x == 0 for x in v) or span.contains(v):
                continue
            kept.append((idx, v))
            span = Subspace(f, mod.dim, span.basis + [mat.mul_vec(v) for mat in mod.action])
            if span.contains(ei):
                break
        if not span.contains(ei):
            raise AlgebraError("generator not covered by idempotent components")
    return kept


def _offsets(data, idxs):
    """Start of each summand of ⊕ A·f_idx, then the total dimension."""
    return [0, *accumulate(data[idx][1].dim for idx in idxs)]


def _cover_matrix(a, mod, data, kept):
    """Matrix of the cover  ⊕ A·f_idx -> mod,  w ⊗ g -> w.g."""
    f = a.field
    cols = []
    for idx, g in kept:
        for w in data[idx][1].basis:
            cols.append(mod.act(w, g))
    return Matrix.from_columns(f, cols, rows=mod.dim)


def projective_resolution(a: FiniteDimAlgebra, m: ModuleRep, length, rng=None) -> ResolutionTrace:
    """Projective resolution of m by principal projectives, computing
    P_0 .. P_length; `rng` shuffles the generator candidate order (Ext
    dimensions do not depend on the choice)."""
    data = _principal_data(a)
    f = a.field
    current = m
    incl_prev = None
    gens = []
    dims = []
    boundaries = []
    kernel_dims = []
    augmentation = None
    finished = False
    degree = -1
    for deg in range(length + 1):
        degree = deg
        if current.dim == 0:
            finished = True
            break
        kept = _minimal_generators(a, current, data, rng)
        gens.append([idx for idx, _ in kept])
        cover = _cover_matrix(a, current, data, kept)
        dims.append(cover.cols)
        if deg == 0:
            augmentation = cover
        else:
            boundaries.append(incl_prev * cover)
        kernel = cover.kernel_basis()
        kernel_dims.append(len(kernel))
        if not kernel:
            finished = True
            break
        p = direct_sum(a, [data[idx][2] for idx, _ in kept])
        syzygy, incl_prev = submodule(p, kernel)
        current = syzygy
    if augmentation is None:  # m was the zero module
        augmentation = Matrix.zeros(f, 0, 0)
        finished = True
    return ResolutionTrace(gens, dims, boundaries, augmentation, kernel_dims,
                           degree, finished)


def ext_dims(a: FiniteDimAlgebra, n: ModuleRep, m: ModuleRep, cap: int, rng=None):
    """dim Ext^i(n, m) for i = 0..cap via the Hom complex of a projective
    resolution of n."""
    trace = projective_resolution(a, n, cap + 1, rng=rng)
    return ext_dims_from_trace(a, trace, m, cap)


def _hom_blocks(a, m, data, needed):
    """For each idempotent index: basis of f·m as a Subspace of m."""
    return {idx: Subspace(a.field, m.dim, m.matrix_of(data[idx][0]).transpose().data)
            for idx in needed}


def ext_dims_from_trace(a, trace, m, cap):
    f = a.field
    data = _principal_data(a)
    gens = [list(g) for g in trace.gens] + [[] for _ in range(cap + 2 - len(trace.gens))]
    needed = {idx for g in gens for idx in g}
    homs = _hom_blocks(a, m, data, needed)
    hom_dims = [sum(homs[idx].dim for idx in gens[i]) for i in range(cap + 2)]

    diff = []
    for i in range(cap + 1):
        if not gens[i] or not gens[i + 1]:
            diff.append(None)
            continue
        boundary = trace.boundaries[i]
        src_offsets = _offsets(data, gens[i])
        col_offsets = _offsets(data, gens[i + 1])
        # column (l, w) of the differential, one segment per block jp of rows
        columns = [[] for idxl in gens[i] for _ in homs[idxl].basis]
        for jp, idxp in enumerate(gens[i + 1]):
            # image in P_i of the generator f of block jp of P_{i+1}
            x = [f.zero] * boundary.cols
            gen_coords = data[idxp][3]
            x[col_offsets[jp]:col_offsets[jp] + len(gen_coords)] = gen_coords
            v = boundary.mul_vec(x)
            k = 0
            for l, idxl in enumerate(gens[i]):
                # algebra element carried by block l
                z = data[idxl][1].from_coords(v[src_offsets[l]:src_offsets[l + 1]])
                for w in homs[idxl].basis:
                    co = homs[idxp].coords(m.act(z, w))
                    if co is None:
                        raise AlgebraError("Hom differential leaves its block")
                    columns[k] += co
                    k += 1
        height = sum(homs[idxp].dim for idxp in gens[i + 1])
        diff.append(Matrix.from_columns(f, columns, rows=height) if height else None)

    out = []
    prev_rank = 0
    for i in range(cap + 1):
        di = diff[i]
        rank = di.rank() if di is not None else 0
        out.append(hom_dims[i] - rank - prev_rank)
        prev_rank = rank
    return out


@memoised
def _top_resolution(a, length):
    return projective_resolution(a, top_module(a), length)


def _verdict_from_ext(ext, cap):
    if ext[cap] != 0:
        return DimensionVerdict(">%d" % cap, cap)
    nonzero = [i for i, e in enumerate(ext) if e != 0]
    return DimensionVerdict(max(nonzero) if nonzero else 0, cap)


def injective_dimension(a: FiniteDimAlgebra, side: str, cap: int) -> DimensionVerdict:
    """Self-injective dimension of the regular module on the given side,
    measured as max{i : Ext^i(top, regular) != 0}."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    b = a if side == "left" else opposite(a)
    trace = _top_resolution(b, cap + 1)
    ext = ext_dims_from_trace(b, trace, regular_module(b), cap)
    return _verdict_from_ext(ext, cap)


def global_dimension(a: FiniteDimAlgebra, cap: int) -> DimensionVerdict:
    """max{i : Ext^i(top, top) != 0} with ">cap" semantics."""
    trace = _top_resolution(a, cap + 1)
    ext = ext_dims_from_trace(a, trace, top_module(a), cap)
    return _verdict_from_ext(ext, cap)


def is_module_projective(a: FiniteDimAlgebra, m: ModuleRep) -> bool:
    """Ext^1(m, top) = 0, equivalent to pd m = 0 over a finite-dimensional
    algebra."""
    ext = ext_dims(a, m, top_module(a), 1)
    return ext[1] == 0


def projective_dimension(a: FiniteDimAlgebra, m: ModuleRep, cap: int) -> DimensionVerdict:
    """pd m as the length of a cover-by-cover resolution, with cap semantics."""
    trace = projective_resolution(a, m, cap + 1)
    if trace.finished:
        pd = len(trace.gens) - 1 if trace.gens else 0
        if pd <= cap:
            return DimensionVerdict(max(pd, 0), cap)
    return DimensionVerdict(">%d" % cap, cap)


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
