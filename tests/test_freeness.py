import pytest
from inputs import boolean_poset, s3_transporter

from eicat.category import presentation_of
from eicat.families import (
    chain_poset,
    diamond_poset,
    diamond_transporter_category,
    poset_category,
    swap_transporter_category,
)
from eicat.freeness import (
    IsIsomorphism,
    decompose,
    is_free,
    is_free_from,
    is_unfactorizable,
    ufp_direct,
    unfactorizables,
)


@pytest.fixture(scope="module")
def chain():
    return presentation_of(poset_category(chain_poset(3, ["x", "y", "z"])))


@pytest.fixture(scope="module")
def diamond():
    return presentation_of(poset_category(diamond_poset()))


@pytest.fixture(scope="module")
def larger_presentations():
    """Instances beyond the corpus's size limits."""
    extra = [("chain_8", poset_category(chain_poset(8))),
             ("boolean_4", poset_category(boolean_poset(4))),
             ("s3_all_subsets", s3_transporter(3))]
    return [(name, presentation_of(c)) for name, c in extra]


def test_unfactorizables_on_chain(chain):
    c = chain.category
    assert is_unfactorizable(c, "x_to_y")
    assert is_unfactorizable(c, "y_to_z")
    assert not is_unfactorizable(c, "x_to_z")  # factors through y
    assert not is_unfactorizable(c, c.identity_of("x"))


def test_unfactorizable_table_indices(chain):
    table = unfactorizables(chain)
    # ordering is (z, y, x): covers sit at (0,1) and (1,2)
    assert table[(0, 1)] == ["y_to_z"]
    assert table[(1, 2)] == ["x_to_y"]
    assert (0, 2) not in table  # x_to_z factors through y


def test_decompose_chain(chain):
    assert decompose(chain, "x_to_z") == ["x_to_y", "y_to_z"]
    assert decompose(chain, "x_to_y") == ["x_to_y"]
    with pytest.raises(IsIsomorphism):
        decompose(chain, chain.category.identity_of("x"))


def test_decompose_diamond_picks_one_chain(diamond):
    chain1 = decompose(diamond, "x_to_w")
    assert len(chain1) == 2
    assert chain1 in (["x_to_y1", "y1_to_w"], ["x_to_y2", "y2_to_w"])


def test_every_non_isomorphism_decomposes(presentations):
    for name, _, p in presentations:
        c = p.category
        for m in c.morphisms:
            if not c.is_isomorphism(m):
                chain = decompose(p, m)
                composite = chain[0]
                for u in chain[1:]:
                    composite = c.compose(u, composite)
                assert composite == m, (name, m)


def test_chain_is_free(chain):
    rep = is_free(chain)
    assert rep.free and rep.counterexample is None
    assert all(rep.free_from.values())


def test_diamond_is_not_free(diamond):
    ok, witness = is_free_from(diamond, "x")
    assert not ok
    alpha, (a1, _), (b1, _) = witness
    assert alpha == "x_to_w" and {a1, b1} == {"x_to_y1", "x_to_y2"}
    rep = is_free(diamond)
    assert not rep.free
    assert rep.free_from == {"w": True, "y1": True, "y2": True, "x": False}


def test_transporter_freeness_follows_poset():
    assert is_free(presentation_of(swap_transporter_category())).free
    assert not is_free(presentation_of(diamond_transporter_category())).free


def test_ufp_direct_agrees_with_is_free_on_corpus(presentations):
    for name, _, p in presentations:
        assert ufp_direct(p) == is_free(p).free, name


def test_hom0_closed_under_automorphism_actions(presentations):
    for name, c, p in presentations:
        table = unfactorizables(p)
        for (i, j), homs in table.items():
            hs = set(homs)
            for m in homs:
                for g in c.hom(p.ordering[i], p.ordering[i]):
                    assert c.compose(g, m) in hs, (name, i, j)
                for h in c.hom(p.ordering[j], p.ordering[j]):
                    assert c.compose(m, h) in hs, (name, i, j)


def disjoint_union_holds(p, i, j):
    """Hom(x_j, x_i) = disjoint union over l of Hom(x_l, x_i) ∘ Hom^0(x_j, x_l),
    reading Hom(x_i, x_i) as Aut(x_i).  0-based indices, i < j."""
    if not i < j:
        raise ValueError("need i < j")
    c = p.category
    unf = unfactorizables(p)
    pieces = []
    for l in range(i, j):
        left = p.hom_set(i, l) if l > i else c.hom(p.ordering[i], p.ordering[i])
        right = unf.get((l, j), [])
        pieces.append({c.compose(f, g) for f in left for g in right})
    total = set(p.hom_set(i, j))
    union = set()
    for s in pieces:
        if union & s:
            return False
        union |= s
    return union == total


def test_disjoint_union_on_chain_and_diamond(chain, diamond):
    assert disjoint_union_holds(chain, 0, 2)
    assert not disjoint_union_holds(diamond, 0, 3)  # the two composite sets collide
    with pytest.raises(ValueError):
        disjoint_union_holds(chain, 2, 2)


def test_free_from_implies_disjoint_union(presentations):
    for name, _, p in presentations:
        rep = is_free(p)
        for j in range(p.n):
            if not rep.free_from[p.ordering[j]]:
                continue
            for i in range(j):
                assert disjoint_union_holds(p, i, j), (name, i, j)


def test_empty_hom_pairs_satisfy_disjoint_union(presentations):
    for name, _, p in presentations:
        for j in range(p.n):
            for i in range(j):
                if not p.hom_set(i, j):
                    assert disjoint_union_holds(p, i, j), (name, i, j)


def test_factorizations_match_reference_definition(presentations, larger_presentations):
    for name, p in [(name, p) for name, _, p in presentations] + larger_presentations:
        c = p.category
        fz = p.factorizations
        assert fz.non_isos == tuple(m for m in c.morphisms if not c.is_isomorphism(m)), name
        unf = {m for m in c.morphisms if is_unfactorizable(c, m)}
        assert fz.unfactorizable == unf, name
        for alpha in c.morphisms:
            scan = [(g, f) for (f, g), h in c.comp.items() if h == alpha and g in unf]
            assert list(fz.first_steps.get(alpha, ())) == scan, (name, alpha)


def test_unfactorizables_returns_fresh_lists(diamond):
    table = unfactorizables(diamond)
    for homs in table.values():
        homs.append("junk")
    assert unfactorizables(diamond) != table
    assert all("junk" not in homs for homs in unfactorizables(diamond).values())


def test_ufp_direct_agrees_with_is_free_on_larger_instances(larger_presentations):
    for name, p in larger_presentations:
        assert ufp_direct(p) == is_free(p).free, name
