import random

import pytest
from inputs import s3_transporter

from eicat import cli, homology
from eicat.algebra import (
    algebra_from_category,
    direct_sum,
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
    corpus,
    diamond_poset,
    poset_category,
    regular_orbit_category,
    stabilized_alpha_category,
)
from eicat.groups import cyclic_group
from eicat.homology import (
    DimensionVerdict,
    ResolutionTrace,
    ZaksViolation,
    ext_dims,
    ext_dims_from_trace,
    global_dimension,
    injective_dimension,
    is_gorenstein_oracle,
    is_module_projective,
    projective_dimension,
    projective_resolution,
)
from eicat.linalg import QQ, Field, Matrix

CAP = 8
CHARACTERISTICS = (0, 2, 3, 5)


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


def _reference_resolution(a, m, length):
    """The resolution loop computed degree by degree to the end, with no
    repeat detection: what `projective_resolution` must reproduce."""
    data = homology._principal_data(a)
    current, incl_prev, augmentation = m, None, None
    gens, dims, boundaries, kernel_dims = [], [], [], []
    finished, degree = False, -1
    for deg in range(length + 1):
        degree = deg
        if current.dim == 0:
            finished = True
            break
        kept = homology._minimal_generators(a, current, data, None)
        gens.append([idx for idx, _ in kept])
        cover = homology._cover_matrix(a, current, data, kept)
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
        current, incl_prev = submodule(p, kernel)
    if augmentation is None:
        augmentation = Matrix.zeros(a.field, 0, 0)
        finished = True
    return ResolutionTrace(gens, dims, boundaries, augmentation, kernel_dims, degree, finished)


def _trace_fields(tr):
    return (tr.gens, tr.dims, tr.boundaries, tr.augmentation, tr.kernel_dims,
            tr.degree_reached, tr.finished)


def _assert_top_resolutions_match_the_reference(a, length, label):
    """On both sides: the trace of the top equals the reference trace field by
    field and verifies, and the Ext it gives (ranks copied past a repeat)
    equals the Ext of the reference trace."""
    for side, b in (("left", a), ("right", opposite(a))):
        top = top_module(b)
        tr = projective_resolution(b, top, length)
        ref = _reference_resolution(b, top, length)
        assert _trace_fields(tr) == _trace_fields(ref), (label, side)
        tr.verify()
        for m in (regular_module(b), top):
            assert ext_dims_from_trace(b, tr, m, length - 1) == \
                ext_dims_from_trace(b, ref, m, length - 1), (label, side)


def _s3_le2(p):
    return algebra_from_category(presentation_of(s3_transporter(2)).category, Field(p))


@pytest.mark.parametrize("char", CHARACTERISTICS)
def test_repeating_resolution_equals_the_degree_by_degree_one(char):
    for name, c in corpus(0):
        a = algebra_from_category(presentation_of(c).category, Field(char))
        _assert_top_resolutions_match_the_reference(a, CAP + 2, (name, char))


def test_resolution_records_where_it_repeats():
    a = group_algebra(cyclic_group(2), Field(2))
    assert projective_resolution(a, top_module(a), CAP).repeat == (1, 1)
    for p, repeat in ((2, (4, 1)), (3, (7, 4)), (0, None)):
        b = _s3_le2(p)
        tr = projective_resolution(b, top_module(b), CAP + 1)
        assert tr.repeat == repeat, p
        assert tr.finished is (repeat is None)
        assert tr.degree_reached == (CAP + 1 if repeat else len(tr.gens) - 1)
    _assert_top_resolutions_match_the_reference(_s3_le2(3), CAP + 2, "s3_subsets_le2@3")


def _count_minimal_generators(monkeypatch):
    calls = []
    minimal_generators = homology._minimal_generators

    def counted(*args):
        calls.append(args)
        return minimal_generators(*args)

    monkeypatch.setattr(homology, "_minimal_generators", counted)
    return calls


def test_resolution_computes_no_degree_after_its_repeat(monkeypatch):
    a = _s3_le2(2)
    top = top_module(a)
    calls = _count_minimal_generators(monkeypatch)
    tr = projective_resolution(a, top, CAP + 1)
    assert tr.repeat == (4, 1) and len(calls) == 5  # degrees 0..4 of 0..9
    assert tr.ranks == _reference_resolution(a, top, CAP + 1).ranks


def test_resolution_with_an_rng_runs_every_degree(monkeypatch):
    a = _s3_le2(2)
    calls = _count_minimal_generators(monkeypatch)
    tr = projective_resolution(a, top_module(a), CAP + 1, rng=random.Random(3))
    assert tr.repeat is None and len(calls) == CAP + 2
    tr.verify()


@pytest.mark.slow
@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_sweep_on_more_corpus_seeds(seed):
    """Every oracle verdict on corpus(seed) × chars 0/2/3/5 at cap 8 bears the
    classifier out or is unknown, and every top resolution verifies and
    equals the reference one."""
    for (name, ch), r in cli.sweep(corpus(seed), CHARACTERISTICS, CAP).items():
        assert r.agrees is not False, (seed, name, ch)
        _assert_top_resolutions_match_the_reference(r.algebra, CAP + 2, (seed, name, ch))
