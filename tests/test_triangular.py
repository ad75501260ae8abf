import sys
from itertools import product

import pytest

from inputs import s3_transporter
from modules import (
    HypothesisViolated,
    ModuleRep,
    build_i_t,
    build_j_t,
    build_m_star,
    dual_module,
    dual_vertex_module,
    is_mstar_projective,
    regular_module,
    tensor_quotient,
)
from test_triangular_golden import regular_vertex_module, slot_dims

from eicat import algebra
from eicat.algebra import (
    AlgebraError,
    algebra_from_category,
    group_algebra,
    opposite,
)
from eicat.category import full_subcategory, presentation_of
from eicat.families import (
    chain_poset,
    corpus,
    diamond_poset,
    poset_category,
    stabilized_alpha_category,
    swap_transporter_category,
)
from eicat.groups import cyclic_group, symmetric_group_3
from eicat.homology import projective_dimension
from eicat.linalg import QQ, Field, Matrix
from eicat.triangular import IndexOutOfRange, mstar_dim, phi_domain_dim


F2 = Field(2)


def gamma(p, f, t):
    """Gamma_t, the algebra of the full subcategory on x_1..x_t."""
    return algebra_from_category(full_subcategory(p.category, p.ordering[:t]), f)


@pytest.fixture(scope="module")
def chain_p():
    return presentation_of(poset_category(chain_poset(3, ["x", "y", "z"])))


@pytest.fixture(scope="module")
def diamond_p():
    return presentation_of(poset_category(diamond_poset()))


def test_vertex_data_and_total_dim(chain_p):
    assert chain_p.n == 3
    assert len(chain_p.category.morphisms) == 6
    for i in range(3):
        assert chain_p.aut_group(i).order == 1
    assert len(chain_p.hom_set(0, 2)) == 1
    assert chain_p.hom_set(2, 0) == []


def psi_associativity_holds(p):
    """(m_il m_lj) m_jt = m_il (m_lj m_jt) on all basis triples."""
    c = p.category
    return all(c.compose(c.compose(a, b), d) == c.compose(a, c.compose(b, d))
               for i in range(p.n) for l in range(i, p.n)
               for j in range(l, p.n) for t in range(j, p.n)
               for a in p.hom_set(i, l) for b in p.hom_set(l, j)
               for d in p.hom_set(j, t))


def test_psi_associativity_on_corpus(presentations):
    for name, _, p in presentations:
        assert psi_associativity_holds(p), name


def _regular_perms(g, f):
    """Left and right regular permutation matrices of a group."""
    index = {e: i for i, e in enumerate(g.elements)}
    left, right = [], []
    for e in g.elements:
        lm = Matrix.zeros(f, g.order, g.order)
        rm = Matrix.zeros(f, g.order, g.order)
        for x, ex in enumerate(g.elements):
            lm.data[index[g.mul(e, ex)]][x] = f.one
            rm.data[index[g.mul(ex, e)]][x] = f.one
        left.append(lm)
        right.append(rm)
    return left, right


def test_tensor_dim_regular_over_group():
    # kG (x)_{kG} kG = kG
    for g in (cyclic_group(2), cyclic_group(3), symmetric_group_3()):
        for ch in (0, 2, 3):
            f = Field(ch)
            left, right = _regular_perms(g, f)
            assert tensor_quotient(f, right, left).dim == g.order


def test_tensor_dim_trivial_modules():
    # k (x)_{kG} k = k, any characteristic
    for ch in (0, 2):
        f = Field(ch)
        ones = [Matrix.identity(f, 1), Matrix.identity(f, 1)]
        assert tensor_quotient(f, ones, ones).dim == 1


def test_tensor_over_trivial_group_is_full_tensor_product():
    f = Field(3)
    m = [Matrix.identity(f, 2)]
    n = [Matrix.identity(f, 5)]
    assert tensor_quotient(f, m, n).dim == 10


def test_tensor_dim_with_zero_factor():
    f = Field(2)
    assert tensor_quotient(f, [], [Matrix.identity(f, 2)]).dim == 0
    assert tensor_quotient(f, [Matrix.zeros(f, 0, 0)], [Matrix.identity(f, 2)]).dim == 0


def test_mstar_dims(chain_p, diamond_p):
    assert mstar_dim(chain_p, 1) == 1
    assert mstar_dim(chain_p, 2) == 2
    # diamond ordering (w, y1, y2, x): the slice above y2 only sees w
    assert mstar_dim(diamond_p, 1) == 1
    assert mstar_dim(diamond_p, 2) == 1
    assert mstar_dim(diamond_p, 3) == 3


def test_build_m_star_validates_and_matches_dim(chain_p, diamond_p):
    for p in (chain_p, diamond_p):
        for t in range(1, p.n):
            m = build_m_star(p, QQ, t)
            assert m.algebra == gamma(p, QQ, t)
            assert m.dim == mstar_dim(p, t)
    with pytest.raises(IndexOutOfRange):
        build_m_star(chain_p, QQ, 0)
    with pytest.raises(IndexOutOfRange):
        build_m_star(chain_p, QQ, 3)


def test_phi_domain_dim_goldens(chain_p, diamond_p):
    assert phi_domain_dim(chain_p, 1) == 1
    assert phi_domain_dim(chain_p, 2) == 2
    # two unfactorizable arrows into the top of the diamond produce a rank-4
    # cover of the 3-dimensional natural module
    assert phi_domain_dim(diamond_p, 3) == 4
    with pytest.raises(IndexOutOfRange):
        phi_domain_dim(diamond_p, 4)


def _perms(f, group, basis, act):
    """The permutation matrices of act(g, -) on basis, for g in group."""
    return [Matrix.from_columns(f, [[f.one if act(g, u) == v else f.zero for v in basis]
                                    for u in basis], rows=len(basis))
            for g in group.elements]


def _cover_dim_by_rank(p, f, t):
    """phi_domain_dim by exact linear algebra: the sum over j <= l < t of
    dim M_jl (x)_{R_l} k U_l, with M_jl and U_l as permutation matrices."""
    c = p.category
    total = 0
    for l in range(t):
        group = p.aut_group(l)
        units = _perms(f, group, p.unfactorizable_homs(l, t), c.compose)
        total += sum(tensor_quotient(f, _perms(f, group, p.hom_set(j, l),
                                               lambda h, m: c.compose(m, h)), units).dim
                     for j in range(l + 1))
    return total


def test_phi_domain_dim_orbit_count_matches_tensor_rank():
    cats = corpus(0) + corpus(1) + [("s3_subsets_le2", s3_transporter(2))]
    for name, c in cats:
        p = presentation_of(c)
        for ch in (0, 2, 3):
            for t in range(1, p.n):
                assert phi_domain_dim(p, t) == _cover_dim_by_rank(p, Field(ch), t), (name, ch, t)


def test_is_mstar_projective_goldens(chain_p, diamond_p):
    assert all(is_mstar_projective(chain_p, QQ, t) for t in (1, 2))
    assert is_mstar_projective(diamond_p, QQ, 1)
    assert is_mstar_projective(diamond_p, QQ, 2)
    assert not is_mstar_projective(diamond_p, QQ, 3)


def test_is_mstar_projective_requires_projectivity_over_k():
    p = presentation_of(stabilized_alpha_category())
    with pytest.raises(HypothesisViolated):
        is_mstar_projective(p, F2, 1)
    # same category in characteristic 3 is fine
    assert isinstance(is_mstar_projective(p, Field(3), 1), bool)


def test_mstar_dimension_count_matches_ext_oracle(presentations):
    """The dimension-count projectivity test agrees with the homological one
    on every corpus instance where the hypothesis holds."""
    from eicat.groups import is_projective_over
    for name, _, p in presentations:
        for ch in (0, 3):
            f = Field(ch)
            if not is_projective_over(p, f)[0]:
                continue
            for t in range(1, p.n):
                if mstar_dim(p, t) == 0:
                    continue
                rep = build_m_star(p, f, t)
                expected = projective_dimension(rep.algebra, rep, 0) == 0
                assert is_mstar_projective(p, f, t) == expected, (name, ch, t)


def test_built_modules_are_over_the_triangular_algebras(chain_p, diamond_p):
    for p in (chain_p, diamond_p):
        m = build_m_star(p, QQ, p.n - 1)
        assert m.algebra == gamma(p, QQ, p.n - 1)
        assert slot_dims(p, m) == [len(p.hom_set(i, p.n - 1)) for i in range(p.n - 1)]
        whole = algebra_from_category(p.category, QQ)
        for t in range(1, p.n + 1):
            r = regular_vertex_module(p, QQ, t)
            assert build_i_t(p, t, r).algebra == whole
            assert build_j_t(p, t, r).algebra == whole


def _count_calls(monkeypatch, names):
    """A list that records each call, from now on, of the `eicat.algebra`
    functions `names`, in every eicat module that binds them and in
    `modules`, where the builders live."""
    calls = []
    for name in names:
        fn = getattr(algebra, name)

        def counted(*args, _fn=fn, _name=name):
            calls.append(_name)
            return _fn(*args)

        for modname, mod in list(sys.modules.items()):
            if (modname.startswith("eicat") or modname == "modules") \
                    and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_builders_never_decompose_an_algebra(presentations, monkeypatch):
    """The builders read the category and the vertex groups only: M_t^*,
    i_t(R_t), j_t(D(R_t)) and D(R_t) over corpus(0) in chars 0/2/3 take no
    opposite algebra, radical or idempotent decomposition."""
    calls = _count_calls(monkeypatch, ("opposite", "radical", "primitive_idempotents"))
    for name, _, p in presentations:
        for ch in (0, 2, 3):
            f = Field(ch)
            for t in range(1, p.n):
                build_m_star(p, f, t)
            for t in range(1, p.n + 1):
                build_i_t(p, t, regular_vertex_module(p, f, t))
                build_j_t(p, t, dual_vertex_module(p, f, t))
    assert calls == []


def _broken(rep, name, matrix):
    """rep with the action of the basis morphism `name` replaced."""
    action = list(rep.action)
    action[rep.algebra.basis.index(name)] = matrix
    return ModuleRep(rep.algebra, rep.dim, action)


def test_module_validation_catches_zeroed_identity_block(chain_p):
    m = build_m_star(chain_p, QQ, 2)
    ident = chain_p.category.identity_of(chain_p.ordering[0])
    with pytest.raises(AlgebraError):
        _broken(m, ident, Matrix.zeros(QQ, m.dim, m.dim)).validate()


def test_module_validation_catches_broken_left_linearity():
    # nontrivial automorphisms make left linearity an actual constraint
    from eicat.families import diamond_transporter_category
    p = presentation_of(diamond_transporter_category())
    m = build_m_star(p, QQ, p.n - 1)
    cat = p.category

    def first_row(x):  # the first coordinate of the slot of x
        ident = m.action[m.algebra.basis.index(cat.identity_of(x))]
        return next(r for r in range(m.dim) if ident.data[r][r])

    name = next(g for g, a in zip(m.algebra.basis, m.action)
                if cat.morphisms[g].src != cat.morphisms[g].dst and not a.is_zero())
    broken = Matrix.zeros(QQ, m.dim, m.dim)
    broken.data[first_row(cat.morphisms[name].dst)][first_row(cat.morphisms[name].src)] = QQ.one
    with pytest.raises(AlgebraError):
        _broken(m, name, broken).validate()


def test_inductions_refuse_a_vertex_module_whose_action_is_zero(chain_p):
    r = group_algebra(chain_p.aut_group(1), QQ)
    zero = ModuleRep(r, 1, [Matrix.zeros(QQ, 1, 1) for _ in r.basis])
    other = regular_module(group_algebra(cyclic_group(2), QQ))  # not over R_2
    for build, a in product((build_i_t, build_j_t), (zero, other)):
        with pytest.raises(AlgebraError):
            build(chain_p, 2, a)


def test_induction_dims_on_chain(chain_p):
    k = regular_vertex_module(chain_p, QQ, 2)  # trivial group: k itself
    assert slot_dims(chain_p, build_i_t(chain_p, 2, k)) == [1, 1, 0]
    assert slot_dims(chain_p, build_j_t(chain_p, 2, k)) == [0, 1, 1]


def test_induced_regular_modules_are_projective(presentations):
    for name, _, p in presentations[:6]:
        alg = algebra_from_category(p.category, F2)
        total = 0
        for t in range(1, p.n + 1):
            rep = build_i_t(p, t, regular_vertex_module(p, F2, t))
            total += rep.dim
            assert projective_dimension(alg, rep, 0) == 0, (name, t)
        # the induced regulars tile the whole algebra
        assert total == alg.dim, name


def test_coinduced_duals_are_injective(presentations):
    for name, _, p in presentations[:6]:
        alg_op = opposite(algebra_from_category(p.category, F2))
        for t in range(1, p.n + 1):
            dual = dual_module(build_j_t(p, t, dual_vertex_module(p, F2, t)))
            assert projective_dimension(alg_op, dual, 0) == 0, (name, t)


def test_dual_vertex_module_is_valid(presentations):
    """D(R_t), built directly, equals the dual of the regular module of
    R_t^op on every vertex group of corpus(0) and of swap_transporter."""
    swap = presentation_of(swap_transporter_category())
    for name, p in [(n, p) for n, _, p in presentations] + [("swap_transporter", swap)]:
        for ch in (0, 2, 3):
            f = Field(ch)
            for t in range(1, p.n + 1):
                m = dual_vertex_module(p, f, t)
                m.validate()
                r = group_algebra(p.aut_group(t - 1), f)
                assert m.algebra == r and m.dim == p.aut_group(t - 1).order
                assert m.action == dual_module(regular_module(opposite(r))).action, (name, ch, t)


def test_unfactorizable_homs_are_stable_under_automorphisms(diamond_p, presentations):
    assert diamond_p.unfactorizable_homs(0, 3) == []
    assert len(diamond_p.unfactorizable_homs(1, 3)) == 1
    # Aut(x_l) permutes U_l, so k U_l is the permutation module phi_domain_dim counts
    for name, _, p in presentations:
        for j in range(p.n):
            for l in range(j):
                units = p.unfactorizable_homs(l, j)
                for g in p.aut_group(l).elements:
                    assert {p.category.compose(g, u) for u in units} == set(units), name


def test_index_bounds_on_inductions(chain_p):
    k = regular_vertex_module(chain_p, QQ, 1)
    with pytest.raises(IndexOutOfRange):
        build_i_t(chain_p, 0, k)
    with pytest.raises(IndexOutOfRange):
        build_j_t(chain_p, 4, k)
