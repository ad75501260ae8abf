import random

import pytest

from eicat.algebra import (
    algebra_from_category,
    group_algebra,
    opposite,
    radical,
    regular_module,
    submodule,
    top_module,
)
from eicat.category import presentation_of
from eicat.families import (
    chain_poset,
    diamond_poset,
    poset_category,
    regular_orbit_category,
    stabilized_alpha_category,
)
from eicat.groups import cyclic_group
from eicat.homology import (
    DimensionVerdict,
    ZaksViolation,
    ext_dims,
    global_dimension,
    injective_dimension,
    is_gorenstein_oracle,
    is_module_projective,
    projective_dimension,
    projective_resolution,
)
from eicat.linalg import QQ, Field

CAP = 8


def cat_algebra(c, f):
    return algebra_from_category(presentation_of(c).category, f)


def test_resolution_of_regular_module_is_immediate():
    for f in (QQ, Field(2)):
        a = cat_algebra(poset_category(chain_poset(3)), f)
        m = regular_module(a)
        tr = projective_resolution(a, m, CAP)
        tr.verify()
        assert tr.finished
        assert tr.dims[0] == a.dim and len(tr.boundaries) == 0


def test_resolution_trace_verifies_on_corpus_samples(sweep):
    for (name, ch), entry in sweep.items():
        if ch != 3:
            continue
        a = entry.algebra
        tr = projective_resolution(a, top_module(a), 3)
        tr.verify()


def test_ext_of_projective_vanishes_positively():
    a = cat_algebra(poset_category(diamond_poset()), Field(2))
    m = regular_module(a)
    ext = ext_dims(a, m, top_module(a), 3)
    assert ext[1:] == [0, 0, 0]
    assert is_module_projective(a, m)


def test_ext_self_of_simple_over_modular_cyclic():
    # F2[Z/2] is local with periodic resolution: dim Ext^i(k, k) = 1 for all i
    a = group_algebra(cyclic_group(2), Field(2))
    k = top_module(a)
    assert ext_dims(a, k, k, 6) == [1] * 7


def test_ext_counts_on_chain():
    # chain x -> y -> z: two arrows give two nonsplit extensions of simples
    a = cat_algebra(poset_category(chain_poset(3)), QQ)
    k = top_module(a)
    ext = ext_dims(a, k, k, 3)
    assert ext == [3, 2, 0, 0]


def test_ext_independent_of_generator_order():
    a = cat_algebra(poset_category(diamond_poset()), Field(2))
    k = top_module(a)
    baseline = ext_dims(a, k, k, 4)
    for seed in (1, 7, 42):
        assert ext_dims(a, k, k, 4, rng=random.Random(seed)) == baseline


def test_injective_and_global_dimension_chain():
    for f in (QQ, Field(2), Field(5)):
        a = cat_algebra(poset_category(chain_poset(3)), f)
        assert injective_dimension(a, "left", CAP) == 1
        assert injective_dimension(a, "right", CAP) == 1
        assert global_dimension(a, CAP) == 1


def test_injective_and_global_dimension_diamond():
    a = cat_algebra(poset_category(diamond_poset()), QQ)
    assert injective_dimension(a, "left", CAP) == 2
    assert injective_dimension(a, "right", CAP) == 2
    assert global_dimension(a, CAP) == 2


def test_modular_group_algebra_selfinjective_infinite_gldim():
    a = group_algebra(cyclic_group(2), Field(2))
    assert injective_dimension(a, "left", CAP) == 0
    g = global_dimension(a, CAP)
    assert not g.finite and g.value == ">8"


def test_regular_orbit_char2_is_one_gorenstein_shaped():
    a = cat_algebra(regular_orbit_category(), Field(2))
    assert injective_dimension(a, "left", CAP) == 1
    assert injective_dimension(a, "right", CAP) == 1
    assert not global_dimension(a, CAP).finite


def test_stabilized_alpha_char2_not_gorenstein_within_cap():
    a = cat_algebra(stabilized_alpha_category(), Field(2))
    v = is_gorenstein_oracle(a, CAP)
    assert not v.gorenstein
    assert v.left.value == ">8" and v.right.value == ">8"


def test_stabilized_alpha_char3_is_hereditary_shaped():
    a = cat_algebra(stabilized_alpha_category(), Field(3))
    assert global_dimension(a, CAP) == 1
    assert is_gorenstein_oracle(a, CAP).gorenstein


def test_projective_dimension_goldens():
    a = cat_algebra(poset_category(chain_poset(3)), QQ)
    assert projective_dimension(a, regular_module(a), CAP) == 0
    assert projective_dimension(a, top_module(a), CAP) == 1
    b = group_algebra(cyclic_group(2), Field(2))
    assert projective_dimension(b, top_module(b), CAP).value == ">8"


def test_radical_submodule_has_expected_projective_dimension():
    a = cat_algebra(poset_category(chain_poset(3)), QQ)
    rad, _ = submodule(regular_module(a), radical(a))
    # rad of a gldim-1 algebra is projective
    assert is_module_projective(a, rad)


def test_verdict_semantics_and_side_validation():
    a = group_algebra(cyclic_group(2), Field(3))
    assert injective_dimension(a, "left", CAP) == DimensionVerdict(0, CAP)
    with pytest.raises(ValueError):
        injective_dimension(a, "middle", CAP)


def test_oracle_agrees_between_sides_on_corpus(sweep):
    """Finite left and right self-injective dimensions always coincide; the
    oracle raises if its own two sides disagree, so surviving the sweep is
    the certificate."""
    for (name, ch), entry in sweep.items():
        v = entry.verdict
        if v.left.finite and v.right.finite:
            assert v.left.value == v.right.value, (name, ch)


def test_opposite_oracle_swaps_sides():
    a = cat_algebra(poset_category(diamond_poset()), Field(2))
    b = opposite(a)
    assert injective_dimension(a, "left", CAP) == injective_dimension(b, "right", CAP)
    assert injective_dimension(a, "right", CAP) == injective_dimension(b, "left", CAP)


def test_gldim_bounds_injective_dimension_when_finite(sweep):
    for (name, ch), entry in sweep.items():
        g = entry.gldim
        v = entry.verdict
        if g.finite:
            assert v.left.finite and v.left.value <= g.value, (name, ch)
            assert v.right.finite and v.right.value <= g.value, (name, ch)


@pytest.mark.parametrize("char", [0, 3])
def test_oracle_leaves_canonicalization_to_the_edge(char, monkeypatch):
    """The oracle's linear algebra runs on ints and makes each result
    canonical as a whole vector; Field.of, one scalar at a time, is for
    inputs.  Canonicalizing every entry of every intermediate vector through
    it takes tens of thousands of calls on this algebra."""
    a = cat_algebra(poset_category(chain_poset(5)), Field(char))
    assert a.dim == 15
    calls = []
    of = Field.of

    def counted(self, n):
        calls.append(n)
        return of(self, n)

    monkeypatch.setattr(Field, "of", counted)
    verdict = is_gorenstein_oracle(a, CAP)
    assert (verdict.left, verdict.right) == (1, 1)
    assert len(calls) < 500
