import pytest

from inputs import s3_transporter

from eicat.algebra import dual_module, regular_module, top_module
from eicat.category import presentation_of
from eicat.families import (
    chain_poset,
    corpus,
    diamond_poset,
    poset_category,
    stabilized_alpha_category,
    swap_transporter_category,
)
from eicat.groups import cyclic_group, symmetric_group_3
from eicat.homology import is_module_projective
from eicat.linalg import Field, Matrix
from eicat.triangular import (
    HypothesisViolated,
    IncompatibleMaps,
    IndexOutOfRange,
    build_i_t,
    build_j_t,
    build_m_star,
    build_triangular,
    column_to_rep,
    dual_vertex_module,
    is_mstar_projective,
    mstar_dim,
    phi_domain_dim,
    tensor_quotient,
)


def tri(c, ch=0):
    return build_triangular(presentation_of(c), Field(ch))


@pytest.fixture(scope="module")
def chain_tp():
    return tri(poset_category(chain_poset(3, ["x", "y", "z"])))


@pytest.fixture(scope="module")
def diamond_tp():
    return tri(poset_category(diamond_poset()))


def test_vertex_data_and_total_dim(chain_tp):
    assert chain_tp.n == 3
    assert chain_tp.total_dim == 6
    for i in range(3):
        assert chain_tp.vertex_algebra(i).dim == 1
    assert len(chain_tp.hom_basis(0, 2)) == 1
    assert chain_tp.hom_basis(2, 0) == []


def test_psi_associativity_on_corpus(presentations):
    for name, _, p in presentations:
        assert build_triangular(p, Field(2)).check_psi_associativity(), name


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


def test_mstar_dims(chain_tp, diamond_tp):
    assert mstar_dim(chain_tp, 1) == 1
    assert mstar_dim(chain_tp, 2) == 2
    # diamond ordering (w, y1, y2, x): the slice above y2 only sees w
    assert mstar_dim(diamond_tp, 1) == 1
    assert mstar_dim(diamond_tp, 2) == 1
    assert mstar_dim(diamond_tp, 3) == 3


def test_build_m_star_validates_and_matches_dim(chain_tp, diamond_tp):
    for tp in (chain_tp, diamond_tp):
        for t in range(1, tp.n):
            cm = build_m_star(tp, t)
            cm.validate()
            assert cm.total_dim == mstar_dim(tp, t)
    with pytest.raises(IndexOutOfRange):
        build_m_star(chain_tp, 0)
    with pytest.raises(IndexOutOfRange):
        build_m_star(chain_tp, 3)


def test_phi_domain_dim_goldens(chain_tp, diamond_tp):
    assert phi_domain_dim(chain_tp, 1) == 1
    assert phi_domain_dim(chain_tp, 2) == 2
    # two unfactorizable arrows into the top of the diamond produce a rank-4
    # cover of the 3-dimensional natural module
    assert phi_domain_dim(diamond_tp, 3) == 4
    with pytest.raises(IndexOutOfRange):
        phi_domain_dim(diamond_tp, 4)


def _cover_dim_by_rank(tp, t):
    """phi_domain_dim by exact linear algebra: the sum over j <= l < t of
    dim M_jl (x)_{R_l} k U_l, with U_l as permutation matrices."""
    f = tp.field
    total = 0
    for l in range(t):
        units = tp.pres.unfactorizable_homs(l, t)
        perms = [Matrix.from_columns(f, [[f.one if tp.compose(g, u) == v else f.zero
                                          for v in units] for u in units], rows=len(units))
                 for g in tp.vertex_group(l).elements]
        total += sum(tensor_quotient(f, tp.right_mats(j, l), perms).dim for j in range(l + 1))
    return total


def test_phi_domain_dim_orbit_count_matches_tensor_rank():
    cats = corpus(0) + corpus(1) + [("s3_subsets_le2", s3_transporter(2))]
    for name, c in cats:
        p = presentation_of(c)
        for ch in (0, 2, 3):
            tp = build_triangular(p, Field(ch))
            for t in range(1, tp.n):
                assert phi_domain_dim(tp, t) == _cover_dim_by_rank(tp, t), (name, ch, t)


def test_is_mstar_projective_goldens(chain_tp, diamond_tp):
    assert all(is_mstar_projective(chain_tp, t) for t in (1, 2))
    assert is_mstar_projective(diamond_tp, 1)
    assert is_mstar_projective(diamond_tp, 2)
    assert not is_mstar_projective(diamond_tp, 3)


def test_is_mstar_projective_requires_projectivity_over_k():
    tp = tri(stabilized_alpha_category(), ch=2)
    with pytest.raises(HypothesisViolated):
        is_mstar_projective(tp, 1)
    # same category in characteristic 3 is fine
    tp3 = tri(stabilized_alpha_category(), ch=3)
    assert isinstance(is_mstar_projective(tp3, 1), bool)


def test_mstar_dimension_count_matches_ext_oracle(presentations):
    """The dimension-count projectivity test agrees with the homological one
    on every corpus instance where the hypothesis holds."""
    from eicat.groups import is_projective_over
    for name, _, p in presentations:
        for ch in (0, 3):
            tp = build_triangular(p, Field(ch))
            if not is_projective_over(p, tp.field)[0]:
                continue
            for t in range(1, tp.n):
                if mstar_dim(tp, t) == 0:
                    continue
                rep = column_to_rep(tp, build_m_star(tp, t))
                alg = tp.algebra(t)
                expected = is_module_projective(alg, rep)
                assert is_mstar_projective(tp, t) == expected, (name, ch, t)


def test_column_to_rep_respects_algebra(chain_tp, diamond_tp):
    for tp in (chain_tp, diamond_tp):
        cm = build_m_star(tp, tp.n - 1)
        rep = column_to_rep(tp, cm)
        rep.validate()
        assert rep.dim == cm.total_dim


def test_column_module_validation_catches_broken_action(chain_tp):
    cm = build_m_star(chain_tp, 2)
    g = chain_tp.vertex_group(0)
    cm.comp_action[0][g.identity] = Matrix.zeros(chain_tp.field, cm.dims[0], cm.dims[0])
    with pytest.raises(IncompatibleMaps):
        cm.validate()


def test_column_module_validation_catches_broken_phi():
    # nontrivial automorphisms make left linearity an actual constraint
    from eicat.families import diamond_transporter_category
    tp = tri(diamond_transporter_category(), ch=0)
    cm = build_m_star(tp, tp.n - 1)
    key = next(k for k, table in cm.phi.items() if table and
               any(m.rows and m.cols for m in table.values()))
    table = cm.phi[key]
    name = next(m for m in table if table[m].rows and table[m].cols)
    broken = Matrix.zeros(tp.field, table[name].rows, table[name].cols)
    broken.data[0][0] = tp.field.one
    table[name] = broken
    with pytest.raises(IncompatibleMaps):
        cm.validate()


def test_induction_dims_on_chain(chain_tp):
    k = regular_module(chain_tp.vertex_algebra(1))  # trivial group: k itself
    it = build_i_t(chain_tp, 2, k)
    jt = build_j_t(chain_tp, 2, k)
    it.validate()
    jt.validate()
    assert it.dims == [1, 1, 0]
    assert jt.dims == [0, 1, 1]


def test_induced_regular_modules_are_projective(presentations):
    for name, _, p in presentations[:6]:
        tp = build_triangular(p, Field(2))
        alg = tp.algebra()
        total = 0
        for t in range(1, tp.n + 1):
            rt = regular_module(tp.vertex_algebra(t - 1))
            rep = column_to_rep(tp, build_i_t(tp, t, rt))
            total += rep.dim
            assert is_module_projective(alg, rep), (name, t)
        # the induced regulars tile the whole algebra
        assert total == tp.total_dim, name


def test_coinduced_duals_are_injective(presentations):
    for name, _, p in presentations[:6]:
        tp = build_triangular(p, Field(2))
        for t in range(1, tp.n + 1):
            dm = dual_vertex_module(tp, t)
            rep = column_to_rep(tp, build_j_t(tp, t, dm))
            dual = dual_module(rep)
            assert is_module_projective(dual.algebra, dual), (name, t)


def test_dual_vertex_module_is_valid():
    tp = tri(swap_transporter_category(), ch=2)
    for t in range(1, tp.n + 1):
        m = dual_vertex_module(tp, t)
        m.validate()
        assert m.dim == tp.vertex_group(t - 1).order


def test_unfactorizable_homs_are_stable_under_automorphisms(diamond_tp, presentations):
    assert diamond_tp.pres.unfactorizable_homs(0, 3) == []
    assert len(diamond_tp.pres.unfactorizable_homs(1, 3)) == 1
    # Aut(x_l) permutes U_l, so k U_l is the permutation module phi_domain_dim counts
    for name, _, p in presentations:
        for j in range(p.n):
            for l in range(j):
                units = p.unfactorizable_homs(l, j)
                for g in p.aut_group(l).elements:
                    assert {p.category.compose(g, u) for u in units} == set(units), name


def test_index_bounds_on_inductions(chain_tp):
    k = regular_module(chain_tp.vertex_algebra(0))
    with pytest.raises(IndexOutOfRange):
        build_i_t(chain_tp, 0, k)
    with pytest.raises(IndexOutOfRange):
        build_j_t(chain_tp, 4, k)
