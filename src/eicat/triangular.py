"""The upper triangular matrix algebra of a skeletal EI category, the
natural modules M_t^* and the induction/coinduction constructions as modules
over it, and the projectivity test for M_t^* by dimension count.

Every function reads the skeletal presentation x_1..x_n directly: the
vertex R_i = k Aut(x_i) on the diagonal, the bimodule M_ij = k Hom(x_j, x_i)
above it, and multiplication from composition.  Object indices are 0-based
in the presentation and t is 1-based, as in the paper.  Gamma_t, the
category algebra of the full subcategory on x_1..x_t, is built by the
builder that needs it; a field is taken only where linear algebra happens.

Every M_ij and every span of unfactorizable morphisms is a permutation
module, and kX (x)_{kG} kY = k[X x_G Y] for a right G-set X and a left
G-set Y in every characteristic; so the dimension of the projective cover of
M_t^* is an orbit count, the same in every characteristic."""

from __future__ import annotations

from functools import partial
from itertools import product

from .algebra import (
    AlgebraError,
    ModuleRep,
    algebra_from_category,
    group_algebra,
    quotient_module,
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


def _compose(p: SkeletalEIPresentation, f, g):
    """f o g, or None when the source of f is not the target of g."""
    return p.category.comp.get((f, g))


def _check_t(t, top):
    if not 1 <= t <= top:
        raise IndexOutOfRange(f"t must be in 1..{top}, got {t}")


def _vertex_module(p: SkeletalEIPresentation, t0: int, a: ModuleRep) -> ModuleRep:
    """a, checked to be a module over R_t0 = k Aut(x_t0), whose basis is the
    group's elements in order."""
    if a.algebra != group_algebra(p.aut_group(t0), a.algebra.field):
        raise AlgebraError(f"the vertex module is not over k Aut(x_{t0 + 1})")
    return a.validate()


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
    return QuotientSpace(f, dm * dn, map(f.to_ints, relations))


def build_m_star(p: SkeletalEIPresentation, f: Field, t: int) -> ModuleRep:
    """The natural left Gamma_t-module k[morphisms x_{t+1} -> x_i, i = 1..t],
    a morphism g acting by m -> g m (t is 1-based, 1 <= t <= n-1)."""
    _check_t(t, p.n - 1)
    alg = algebra_from_category(full_subcategory(p.category, p.ordering[:t]), f)
    basis = [m for i in range(t) for m in p.hom_set(i, t)]
    return ModuleRep(alg, len(basis), [_map_matrix(f, basis, partial(_compose, p, g))
                                       for g in alg.basis]).validate()


def mstar_dim(p: SkeletalEIPresentation, t: int) -> int:
    return sum(len(p.hom_set(i, t)) for i in range(t))


def build_i_t(p: SkeletalEIPresentation, t: int, a: ModuleRep) -> ModuleRep:
    """The induced module i_t(A) = Gamma e_t (x)_{R_t} A over the whole
    algebra (t is 1-based), over the field of A.

    It is the quotient of k[pairs (m, b)], m a morphism out of x_t and b a
    basis vector of A, the pair at ambient index m*dim(A) + b, by
    (m h, b) = (m, h b) for h in Aut(x_t), the submodule `tensor_quotient`
    spans, where a morphism g acts by (m, b) -> (g m, b)."""
    _check_t(t, p.n)
    t0 = t - 1
    a = _vertex_module(p, t0, a)
    f = a.algebra.field
    out = [m for j in range(t) for m in p.hom_set(j, t0)]
    right = [_map_matrix(f, out, lambda m: _compose(p, m, h)) for h in p.aut_group(t0).elements]
    pairs = list(product(out, range(a.dim)))
    alg = algebra_from_category(p.category, f)
    ambient = ModuleRep(alg, len(pairs), [_on_pairs(f, pairs, partial(_compose, p, g))
                                          for g in alg.basis])
    return quotient_module(ambient, tensor_quotient(f, right, a.action).sub.basis)[0].validate()


def _hom_basis(p: SkeletalEIPresentation, t0: int, a: ModuleRep, pairs) -> list:
    """A basis of the R_t0-linear maps F from k[morphisms into x_t0] to A
    among the vectors on `pairs` (m, b), the value of F at m in coordinate
    b: the F with F(g m) = g F(m) for g in Aut(x_t0)."""
    f, n = a.algebra.field, len(pairs)
    index = {q: x for x, q in enumerate(pairs)}
    entries = []
    for k, (g, ag) in enumerate(zip(p.aut_group(t0).elements, a.action)):
        for x, (m, b) in enumerate(pairs):
            entries.append((k * n + x, index[(p.category.compose(g, m), b)], f.one))
            entries += [(k * n + x, index[(m, c)], f.neg(v)) for c, v in enumerate(ag.data[b]) if v]
    return Matrix.from_entries(f, len(a.action) * n, n, entries).kernel_basis()


def build_j_t(p: SkeletalEIPresentation, t: int, a: ModuleRep) -> ModuleRep:
    """The coinduced module j_t(A) = Hom_{R_t}(e_t Gamma, A) over the whole
    algebra (t is 1-based), over the field of A.

    It is the submodule of the R_t-linear maps (`_hom_basis`) in the maps
    F: k[morphisms into x_t] -> A on the pairs (m, b), where a morphism g
    acts by F -> F(- o g), the transpose of (m, b) -> (m g, b)."""
    _check_t(t, p.n)
    t0 = t - 1
    a = _vertex_module(p, t0, a)
    f = a.algebra.field
    into = [m for l in range(t0, p.n) for m in p.hom_set(t0, l)]
    pairs = list(product(into, range(a.dim)))
    alg = algebra_from_category(p.category, f)
    ambient = ModuleRep(alg, len(pairs), [
        _on_pairs(f, pairs, lambda m: _compose(p, m, g)).transpose() for g in alg.basis])
    return submodule(ambient, _hom_basis(p, t0, a, pairs))[0].validate()


def dual_vertex_module(p: SkeletalEIPresentation, f: Field, t: int) -> ModuleRep:
    """D(R_t), the dual of the right regular module, as a left R_t-module:
    g sends the dual basis vector e_h* to e_{h g^-1}*, since
    (g.phi)(x) = phi(x g)."""
    group = p.aut_group(t - 1)
    return ModuleRep(group_algebra(group, f), group.order, [
        _map_matrix(f, group.elements, lambda h: group.mul(h, group.inverse(g)))
        for g in group.elements])


def phi_domain_dim(p: SkeletalEIPresentation, t: int) -> int:
    """dim of the projective cover source of M_t^*: the sum over j <= l < t
    (0-based) of dim M_jl (x)_{R_l} k U_l, U_l the unfactorizable morphisms
    x_t -> x_l.  Each term counts the orbits of Hom(x_l, x_j) x_{Aut(x_l)} U_l
    by Burnside's lemma, (1/|G|) sum_h |{m : m h = m}| |{u : h u = u}|; for
    j = l the group acts freely and the term is |U_l|."""
    _check_t(t, p.n - 1)
    c = p.category
    total = 0
    for l in range(t):
        units = p.unfactorizable_homs(l, t)
        if not units:
            continue
        group = p.aut_group(l)
        fixed = [(h, sum(c.compose(h, u) == u for u in units)) for h in group.elements]
        total += sum(k * sum(c.compose(m, h) == m for m in p.hom_set(j, l))
                     for j in range(l + 1) for h, k in fixed if k) // group.order
    return total


def is_mstar_projective(p: SkeletalEIPresentation, f: Field, t: int) -> bool:
    """Whether M_t^* is projective over Gamma_t, by the dimension count of
    its projective cover; requires the category to be projective over k."""
    ok, witnesses = is_projective_over(p, f)
    if not ok:
        raise HypothesisViolated(f"category not projective over k; witnesses {witnesses}")
    return phi_domain_dim(p, t) == mstar_dim(p, t)
