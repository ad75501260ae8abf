"""The dimension counts the classifier reads off the upper triangular matrix
algebra of a skeletal EI category: dim M_t^*, the natural module over
Gamma_t, and the dimension of its projective cover.  When the category is
projective over k, M_t^* is projective exactly when the two are equal.

Every function reads the skeletal presentation x_1..x_n directly: the
vertex R_i = k Aut(x_i) on the diagonal, the bimodule M_ij = k Hom(x_j, x_i)
above it, and multiplication from composition.  Object indices are 0-based
in the presentation and t is 1-based, as in the paper.  Gamma_t is the
category algebra of the full subcategory on x_1..x_t.  No algebra and no
module is built: the modules themselves, M_t^* and the induced and
coinduced modules, are built as action matrices only in the tests
(`tests/modules.py`), as the reference these counts are checked against.

Every M_ij and every span of unfactorizable morphisms is a permutation
module, and kX (x)_{kG} kY = k[X x_G Y] for a right G-set X and a left
G-set Y in every characteristic; so the dimension of the projective cover of
M_t^* is an orbit count, the same in every characteristic."""

from __future__ import annotations

from .category import SkeletalEIPresentation


class TriangularError(Exception):
    pass


class IndexOutOfRange(TriangularError):
    pass


def _check_t(t, top):
    if not 1 <= t <= top:
        raise IndexOutOfRange(f"t must be in 1..{top}, got {t}")


def mstar_dim(p: SkeletalEIPresentation, t: int) -> int:
    """dim M_t^*, the number of morphisms x_{t+1} -> x_i for i = 1..t."""
    _check_t(t, p.n - 1)
    return sum(len(p.hom_set(i, t)) for i in p.below[t])


def phi_domain_dim(p: SkeletalEIPresentation, t: int) -> int:
    """dim of the projective cover source of M_t^*: the sum over j <= l < t
    (0-based) of dim M_jl (x)_{R_l} k U_l, U_l the unfactorizable morphisms
    x_t -> x_l.  Each term counts the orbits of Hom(x_l, x_j) x_{Aut(x_l)} U_l
    by Burnside's lemma, (1/|G|) sum_h |{m : m h = m}| |{u : h u = u}|; for
    j = l the group acts freely and the term is |U_l|.  Only the nonempty
    hom-sets (`SkeletalEIPresentation.below`) are visited."""
    _check_t(t, p.n - 1)
    c = p.category
    total = 0
    for l in p.below[t]:
        units = p.unfactorizable_homs(l, t)
        if not units:
            continue
        group = p.aut_group(l)
        fixed = [(h, sum(c.compose(h, u) == u for u in units)) for h in group.elements]
        total += sum(k * sum(c.compose(m, h) == m for m in p.hom_set(j, l))
                     for j in (*p.below[l], l) for h, k in fixed if k) // group.order
    return total
