"""The upper triangular matrix algebra of a skeletal EI category, the
natural modules M_t^* and the induction/coinduction constructions as modules
over it, and the projectivity test for M_t^* by dimension count.

Every M_ij = k Hom(x_j, x_i) and every span of unfactorizable morphisms is a
permutation module, and kX (x)_{kG} kY = k[X x_G Y] for a right G-set X and
a left G-set Y in every characteristic; so the dimension of the projective
cover of M_t^* is an orbit count, the same in every characteristic."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product

from .algebra import (
    AlgebraError,
    ModuleRep,
    algebra_from_category,
    dual_module,
    group_algebra,
    opposite,
    quotient_module,
    regular_module,
    submodule,
)
from .category import SkeletalEIPresentation, full_subcategory
from .groups import is_projective_over
from .linalg import Field, Matrix, QuotientSpace


class TriangularError(Exception):
    pass


class IndexOutOfRange(TriangularError):
    pass


class HypothesisViolated(TriangularError):
    pass


@dataclass
class TriangularPresentation:
    """Group-algebra vertices R_i = k Aut(x_i) on the diagonal, bimodules
    M_ij = k Hom(x_j, x_i) above it, multiplication from composition.

    Object indices are 0-based throughout; morphisms run x_j -> x_i for
    i <= j."""

    field: Field
    pres: SkeletalEIPresentation
    _vertex: dict = field(default_factory=dict, repr=False)
    _alg: dict = field(default_factory=dict, repr=False)

    @property
    def n(self):
        return self.pres.n

    def vertex_group(self, i):
        return self.pres.aut_group(i)

    def vertex_algebra(self, i):
        if i not in self._vertex:
            self._vertex[i] = group_algebra(self.vertex_group(i), self.field)
        return self._vertex[i]

    def hom_basis(self, i, j):
        """Basis of M_ij = k Hom(x_j, x_i); for i == j the Aut group."""
        return self.pres.hom_set(i, j)

    def compose(self, f, g):
        """f o g, or None when the source of f is not the target of g."""
        return self.pres.category.comp.get((f, g))

    def algebra(self, upto=None):
        """The category algebra of the full subcategory on x_1..x_upto."""
        upto = self.n if upto is None else upto
        if upto not in self._alg:
            sub = full_subcategory(self.pres.category, self.pres.ordering[:upto])
            self._alg[upto] = algebra_from_category(sub, self.field)
        return self._alg[upto]

    def right_mats(self, i, j):
        """Right action of the R_j basis on M_ij: pre-composition with each
        element of Aut(x_j), as a permutation matrix."""
        return [_map_matrix(self.field, self.hom_basis(i, j), lambda m: self.compose(m, h))
                for h in self.vertex_group(j).elements]


def _map_matrix(f: Field, basis, image) -> Matrix:
    """The 0/1 matrix of the map sending basis[t] to image(basis[t]), a
    member of `basis`, or to 0 where the image is None."""
    index = {m: r for r, m in enumerate(basis)}
    entries = ((index[m], t, f.one) for t, m in enumerate(map(image, basis)) if m is not None)
    return Matrix.from_entries(f, len(basis), len(basis), entries)


def _on_pairs(f: Field, pairs, move) -> Matrix:
    """The 0/1 matrix of (m, b) -> (move(m), b) on `pairs`, 0 where move(m)
    is None."""
    return _map_matrix(f, pairs, lambda p: None if (m := move(p[0])) is None else (m, p[1]))


def _check_t(t, top):
    if not 1 <= t <= top:
        raise IndexOutOfRange(f"t must be in 1..{top}, got {t}")


def _vertex_module(tp: TriangularPresentation, t0: int, a: ModuleRep) -> ModuleRep:
    """a, checked to be a module over R_t0 = k Aut(x_t0), whose basis is the
    group's elements in order."""
    if a.algebra != tp.vertex_algebra(t0):
        raise AlgebraError(f"the vertex module is not over k Aut(x_{t0 + 1})")
    return a.validate()


def build_triangular(p: SkeletalEIPresentation, f: Field) -> TriangularPresentation:
    return TriangularPresentation(f, p)


def tensor_quotient(f: Field, right_mats, left_mats) -> QuotientSpace:
    """M (x)_R N as a quotient of M (x)_k N; pure tensor (a, b) sits at
    ambient index a*dim(N) + b."""
    dm = right_mats[0].rows if right_mats else 0
    dn = left_mats[0].rows if left_mats else 0
    relations = []
    for rm, lm in zip(right_mats, left_mats):
        for a in range(dm):
            mr = rm.column(a)
            for b in range(dn):
                rn = lm.column(b)
                vec = [f.zero] * (dm * dn)
                for x, cx in enumerate(mr):
                    if cx != 0:
                        vec[x * dn + b] = f.add(vec[x * dn + b], cx)
                for y, cy in enumerate(rn):
                    if cy != 0:
                        vec[a * dn + y] = f.sub(vec[a * dn + y], cy)
                relations.append(vec)
    return QuotientSpace(f, dm * dn, relations)


def build_m_star(tp: TriangularPresentation, t: int) -> ModuleRep:
    """The natural left Gamma_t-module k[morphisms x_{t+1} -> x_i, i = 1..t],
    a morphism g acting by m -> g m (t is 1-based, 1 <= t <= n-1)."""
    _check_t(t, tp.n - 1)
    alg = tp.algebra(t)
    basis = [m for i in range(t) for m in tp.hom_basis(i, t)]
    return ModuleRep(alg, len(basis), [_map_matrix(tp.field, basis, partial(tp.compose, g))
                                       for g in alg.basis]).validate()


def mstar_dim(tp: TriangularPresentation, t: int) -> int:
    return sum(len(tp.hom_basis(i, t)) for i in range(t))


def build_i_t(tp: TriangularPresentation, t: int, a: ModuleRep) -> ModuleRep:
    """The induced module i_t(A) = Gamma e_t (x)_{R_t} A over the whole
    algebra (t is 1-based).

    It is the quotient of k[pairs (m, b)], m a morphism out of x_t and b a
    basis vector of A, the pair at ambient index m*dim(A) + b, by
    (m h, b) = (m, h b) for h in Aut(x_t), the submodule `tensor_quotient`
    spans, where a morphism g acts by (m, b) -> (g m, b)."""
    _check_t(t, tp.n)
    f, t0 = tp.field, t - 1
    a = _vertex_module(tp, t0, a)
    out = [m for j in range(t) for m in tp.hom_basis(j, t0)]
    right = [_map_matrix(f, out, lambda m: tp.compose(m, h))
             for h in tp.vertex_group(t0).elements]
    pairs = list(product(out, range(a.dim)))
    alg = tp.algebra()
    ambient = ModuleRep(alg, len(pairs), [_on_pairs(f, pairs, partial(tp.compose, g))
                                          for g in alg.basis])
    return quotient_module(ambient, tensor_quotient(f, right, a.action).sub.basis)[0].validate()


def _hom_basis(tp: TriangularPresentation, t0: int, a: ModuleRep, pairs) -> list:
    """A basis of the R_t0-linear maps F from k[morphisms into x_t0] to A
    among the vectors on `pairs` (m, b), the value of F at m in coordinate
    b: the F with F(g m) = g F(m) for g in Aut(x_t0)."""
    f, n = tp.field, len(pairs)
    index = {p: x for x, p in enumerate(pairs)}
    entries = []
    for k, (g, ag) in enumerate(zip(tp.vertex_group(t0).elements, a.action)):
        for x, (m, b) in enumerate(pairs):
            entries.append((k * n + x, index[(tp.compose(g, m), b)], f.one))
            entries += [(k * n + x, index[(m, c)], f.neg(v)) for c, v in enumerate(ag.data[b]) if v]
    return Matrix.from_entries(f, len(a.action) * n, n, entries).kernel_basis()


def build_j_t(tp: TriangularPresentation, t: int, a: ModuleRep) -> ModuleRep:
    """The coinduced module j_t(A) = Hom_{R_t}(e_t Gamma, A) over the whole
    algebra (t is 1-based).

    It is the submodule of the R_t-linear maps (`_hom_basis`) in the maps
    F: k[morphisms into x_t] -> A on the pairs (m, b), where a morphism g
    acts by F -> F(- o g), the transpose of (m, b) -> (m g, b)."""
    n = tp.n
    _check_t(t, n)
    f, t0 = tp.field, t - 1
    a = _vertex_module(tp, t0, a)
    into = [m for l in range(t0, n) for m in tp.hom_basis(t0, l)]
    pairs = list(product(into, range(a.dim)))
    alg = tp.algebra()
    ambient = ModuleRep(alg, len(pairs), [
        _on_pairs(f, pairs, lambda m: tp.compose(m, g)).transpose() for g in alg.basis])
    return submodule(ambient, _hom_basis(tp, t0, a, pairs))[0].validate()


def dual_vertex_module(tp: TriangularPresentation, t: int) -> ModuleRep:
    """D(R_t), the dual of the right regular module, as a left R_t-module."""
    return dual_module(regular_module(opposite(tp.vertex_algebra(t - 1))))


def phi_domain_dim(tp: TriangularPresentation, t: int) -> int:
    """dim of the projective cover source of M_t^*: the sum over j <= l < t
    (0-based) of dim M_jl (x)_{R_l} k U_l, U_l the unfactorizable morphisms
    x_t -> x_l.  Each term counts the orbits of Hom(x_l, x_j) x_{Aut(x_l)} U_l
    by Burnside's lemma, (1/|G|) sum_h |{m : m h = m}| |{u : h u = u}|; for
    j = l the group acts freely and the term is |U_l|."""
    _check_t(t, tp.n - 1)
    total = 0
    for l in range(t):
        units = tp.pres.unfactorizable_homs(l, t)
        if not units:
            continue
        group = tp.vertex_group(l)
        fixed = [(h, sum(tp.compose(h, u) == u for u in units)) for h in group.elements]
        total += sum(k * sum(tp.compose(m, h) == m for m in tp.hom_basis(j, l))
                     for j in range(l + 1) for h, k in fixed if k) // group.order
    return total


def is_mstar_projective(tp: TriangularPresentation, t: int) -> bool:
    """Whether M_t^* is projective over Gamma_t, by the dimension count of
    its projective cover; requires the category to be projective over k."""
    ok, witnesses = is_projective_over(tp.pres, tp.field)
    if not ok:
        raise HypothesisViolated(f"category not projective over k; witnesses {witnesses}")
    return phi_domain_dim(tp, t) == mstar_dim(tp, t)
