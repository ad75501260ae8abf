import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import modules
import pytest
from inputs import permuted, rebased, s3_transporter
from modules import (
    ModuleRep,
    field_vectors,
    quotient_module,
    regular_module,
    submodule,
    transpose,
)

from eicat import algebra, cli, homology
from eicat.algebra import (
    AlgebraError,
    FiniteDimAlgebra,
    algebra_from_category,
    group_algebra,
    opposite,
    primitive_idempotents,
    radical,
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
    projective_dimension,
    projective_resolution,
)
from eicat.linalg import QQ, Field, Matrix, Subspace, unit_rows, unit_vector

CAP = 8
CHARACTERISTICS = (0, 2, 3, 5)


def cat_algebra(c, f):
    return algebra_from_category(presentation_of(c).category, f)


def test_resolution_of_regular_module_is_immediate():
    for f in (QQ, Field(2)):
        a = cat_algebra(poset_category(chain_poset(3)), f)
        m = regular_module(a)
        tr = projective_resolution(a, m, CAP)
        tr.verify(a)
        assert tr.finished
        assert tr.covers[0].cols == a.dim and len(tr.covers) == 1


def test_resolution_trace_verifies_on_corpus_samples(sweep):
    for (name, ch), entry in sweep.items():
        if ch != 3:
            continue
        a = entry.algebra
        tr = projective_resolution(a, top_module(a), 3)
        tr.verify(a)


def test_ext_of_projective_vanishes_positively():
    a = cat_algebra(poset_category(diamond_poset()), Field(2))
    m = regular_module(a)
    ext = ext_dims(a, m, top_module(a), 3)
    assert ext[1:] == [0, 0, 0]
    assert projective_dimension(a, m, 0) == 0


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


def test_ext_reads_a_short_trace_through_its_repeat():
    # F2[Z/2]: the trace of the top repeats from degree 1 with period 1
    a = group_algebra(cyclic_group(2), Field(2))
    k = top_module(a)
    assert ext_dims_from_trace(a, projective_resolution(a, k, 2), k, 6) == [1] * 7
    # S3 on subsets of size <= 2 in char 3 repeats from degree 7 with period 4:
    # cut at degree 5 it has not repeated yet, so Ext through 6 is refused
    s3 = _s3_le2(3)
    top = top_module(s3)
    unrepeated = projective_resolution(s3, top, 5)
    assert unrepeated.repeat is None and not unrepeated.finished
    with pytest.raises(AlgebraError):
        ext_dims_from_trace(s3, unrepeated, top, 6)
    short = projective_resolution(s3, top, 8)
    assert short.repeat == (7, 4) and len(short.gens) == 9
    full = projective_resolution(s3, top, 12)
    for m in (regular_module(s3), top):
        assert ext_dims_from_trace(s3, short, m, 11) == ext_dims_from_trace(s3, full, m, 11)
    # a finished trace reads P = 0 past its end
    b = cat_algebra(poset_category(chain_poset(3)), QQ)
    top = top_module(b)
    trace = projective_resolution(b, top, 1)
    assert trace.finished and len(trace.gens) == 2
    assert ext_dims_from_trace(b, trace, top, 3) == [3, 2, 0, 0]


def test_ext_independent_of_generator_order():
    """A relabelled copy resolves its top through other generators, and
    gives the same Ext."""
    a = cat_algebra(poset_category(diamond_poset()), Field(2))
    k = top_module(a)
    baseline = ext_dims(a, k, k, 4)
    for seed in (1, 7, 42):
        b = permuted(a, random.Random(seed))
        assert ext_dims(b, top_module(b), top_module(b), 4) == baseline


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


def test_a_redundant_generator_is_caught_and_gives_no_verdict(monkeypatch):
    """With a redundant copy of the last generator kept at every degree the
    resolution is still exact, but its boundaries leave the radical:
    `verify` and `global_dimension` refuse it, and the same trace without
    the copy verifies."""
    minimal_generators = homology._minimal_generators

    def redundant(*args):
        kept = minimal_generators(*args)
        return kept + kept[-1:]

    a = cat_algebra(poset_category(chain_poset(3)), QQ)
    monkeypatch.setattr(homology, "_minimal_generators", redundant)
    with pytest.raises(AlgebraError, match="degree 1"):
        global_dimension(a, CAP)
    trace = projective_resolution(a, top_module(a), CAP + 2)
    with pytest.raises(AlgebraError, match="leaves the radical"):
        trace.verify(a)
    monkeypatch.undo()
    assert projective_resolution(a, top_module(a), CAP + 2).verify(a)


def _summands(data, idxs):
    """(A·f_idx, start, end) of each summand of ⊕ A·f_idx over idxs, in
    summand coordinates: the rref basis of each A·f_idx in turn."""
    ends = list(accumulate(data[idx][1].dim for idx in idxs))
    return [(data[idx][1], end - data[idx][1].dim, end) for idx, end in zip(idxs, ends)]


@pytest.mark.parametrize("char", [0, 2, 3])
def test_sum_cuts_puts_and_acts_in_summand_coordinates(char):
    """`homology._Sum` on ⊕ A·f over the principal projectives of each
    corpus(0) algebra, each taken twice, against a dense reference that
    slices a row at the summand offsets: every part `cut` gives lies in its
    summand and is the slice lifted to A, a zero slice giving no part; `put`
    of the parts, also over unequal denominators, has the value of the row
    (its int row may be rescaled);
    and `int_products` equals the product of each u with each lift, put in
    its summand by `Subspace.int_coords`."""
    f = Field(char)
    rng = random.Random(char)
    for _, c in corpus(0):
        a = cat_algebra(c, f)
        data = homology._principal_data(a)
        idxs = [*range(len(data))] * 2
        total = homology._Sum(a, [data[idx][1] for idx in idxs])
        summands = _summands(data, idxs)
        assert total.dim == summands[-1][2]
        rows = [f.to_ints([f.of(Fraction(rng.randint(-2, 2), rng.randint(1, 3) if not char else 1))
                           if rng.random() < 0.3 else f.zero for _ in range(total.dim)])
                for _ in range(6)] + [({}, 1)]
        us = [e for e, _, _ in data] + unit_rows(a.dim)
        products = iter(total.int_products(us, rows))
        for w, den in rows:
            value = f.from_ints((w, den), total.dim)
            parts = total.cut(w.items(), den)
            for b, (sub, lo, hi) in enumerate(summands):
                if not any(value[lo:hi]):
                    assert b not in parts
                    continue
                assert sub.int_contains(parts[b])
                lift = f.from_ints(sub.int_from_coords(f.to_ints(value[lo:hi])), a.dim)
                assert f.from_ints(parts[b], a.dim) == lift
            assert f.from_ints(total.put(parts), total.dim) == value
            if not char:  # parts over other denominators are put over their lcm
                scaled = {b: ({i: x * (b + 1) for i, x in w.items()}, d * (b + 1))
                          for b, (w, d) in parts.items()}
                assert f.from_ints(total.put(scaled), total.dim) == value
        for u in us:
            for w, den in rows:
                value = f.from_ints((w, den), total.dim)
                product = [f.zero] * total.dim
                for sub, lo, hi in summands:
                    if any(value[lo:hi]):
                        x = sub.int_from_coords(f.to_ints(value[lo:hi]))
                        co = sub.int_coords(a.int_products([u], [x])[0])
                        product[lo:hi] = f.from_ints(co, hi - lo)
                assert f.from_ints(next(products), total.dim) == product
        assert next(products, None) is None


@pytest.mark.parametrize("char", [0, 3])
def test_verify_reads_exactness_from_the_covers(char):
    """`verify` checks exactness on the covers, not on the recorded
    kernel_dims: a zero covers[0] is not onto; a finished trace whose last
    boundary lost a column no longer reaches the kernel before it; one whose
    last boundary gained a zero column is not injective there, and says so
    whether kernel_dims records that kernel or not."""
    f = Field(char)
    for c in (poset_category(chain_poset(3)), poset_category(diamond_poset())):
        a = cat_algebra(c, f)
        trace = projective_resolution(a, top_module(a), CAP + 2)
        assert trace.finished and len(trace.covers) >= 2 and trace.verify(a)
        first, last = trace.covers[0], trace.covers[-1]
        zero = Matrix.zeros(f, first.rows, first.cols)
        with pytest.raises(AlgebraError, match="not onto"):
            replace(trace, covers=[zero, *trace.covers[1:]]).verify(a)
        columns = [last.column(j) for j in range(last.cols)]
        dropped = Matrix.from_columns(f, columns[:-1], rows=last.rows)
        with pytest.raises(AlgebraError, match="image != kernel"):
            replace(trace, covers=[*trace.covers[:-1], dropped]).verify(a)
        padded = Matrix.from_columns(f, columns + [[f.zero] * last.rows], rows=last.rows)
        with pytest.raises(AlgebraError, match="kernel_dims"):
            replace(trace, covers=[*trace.covers[:-1], padded]).verify(a)
        with pytest.raises(AlgebraError, match="not injective"):
            replace(trace, covers=[*trace.covers[:-1], padded],
                    kernel_dims=[*trace.kernel_dims[:-1], 1]).verify(a)


@pytest.mark.parametrize("char", [0, 3])
def test_minimality_check_reads_every_column(char):
    """`_check_minimal` walks every column of every boundary: putting the
    generator of the first block of P_{i-1}, which lies outside the radical,
    in any one column of covers[i] is refused at degree i."""
    f = Field(char)
    for c in (poset_category(chain_poset(3)), poset_category(diamond_poset())):
        a = cat_algebra(c, f)
        trace = projective_resolution(a, top_module(a), CAP + 2)
        assert trace.finished and homology._check_minimal(a, trace) is None
        data = homology._principal_data(a)
        for i in range(1, len(trace.covers)):
            cover = trace.covers[i]
            _, lo, hi = _summands(data, trace.gens[i - 1])[0]
            outside = [f.zero] * cover.rows
            outside[lo:hi] = f.from_ints(data[trace.gens[i - 1][0]][2], hi - lo)
            for j in range(cover.cols):
                columns = [cover.column(k) for k in range(cover.cols)]
                columns[j] = outside
                covers = list(trace.covers)
                covers[i] = Matrix.from_columns(f, columns, rows=cover.rows)
                with pytest.raises(AlgebraError, match=f"degree {i} leaves"):
                    homology._check_minimal(a, replace(trace, covers=covers))


def test_covers_are_made_canonical_only_when_read(monkeypatch):
    """A cover is held as the int view of `Matrix.from_int_columns`, and its
    canonical entries are made on first read: the oracle on the S3 <= 2
    skeleton in char 2, whose top resolutions do not finish, reads none;
    on chain_3 in char 0, whose resolutions finish, `verify` reads each
    cover it composes through `Matrix.__mul__` once."""
    built = []
    getattr_ = Matrix.__getattr__

    def counted(m, name):
        built.append((id(m), name))
        return getattr_(m, name)

    monkeypatch.setattr(Matrix, "__getattr__", counted)
    a = _s3_le2(2)
    assert is_gorenstein_oracle(a, CAP).left == 2
    assert not any(homology._top_resolution(b, CAP + 2).finished for b in (a, opposite(a)))
    assert built == []
    a = cat_algebra(poset_category(chain_poset(3)), QQ)
    assert is_gorenstein_oracle(a, CAP).gorenstein
    traces = [homology._top_resolution(b, CAP + 2) for b in (a, opposite(a))]
    assert all(tr.finished for tr in traces)
    composed = [id(c) for tr in traces for c in tr.covers[1:]]
    assert sorted(built) == sorted((i, "data") for i in composed)


def test_a_negative_cap_is_refused():
    """Each dimension that takes a cap refuses a negative one by name, and
    so does the oracle, which reads them: none reports ">-1"."""
    a = cat_algebra(poset_category(chain_poset(3)), QQ)
    calls = [lambda: injective_dimension(a, "left", -1),
             lambda: injective_dimension(a, "right", -1),
             lambda: projective_dimension(a, top_module(a), -1),
             lambda: global_dimension(a, -1),
             lambda: ext_dims(a, top_module(a), a, -1),
             lambda: is_gorenstein_oracle(a, -1)]
    for call in calls:
        with pytest.raises(ValueError, match="the cap must be >= 0, got -1"):
            call()
    assert ("global_dimension", -1) not in a._memo
    assert global_dimension(a, 1) == 1 and is_gorenstein_oracle(a, 1).gorenstein


def test_radical_submodule_has_expected_projective_dimension():
    a = cat_algebra(poset_category(chain_poset(3)), QQ)
    rad, _ = submodule(regular_module(a), field_vectors(a, radical(a)))
    # rad of a gldim-1 algebra is projective
    assert projective_dimension(a, rad, 0) == 0


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


def _assert_relabelling_invariant(a, verdict, gldim, rng):
    """The oracle on a copy of a with its basis permuted (`permuted`) gives
    the verdicts (verdict, gldim) of a, and every top resolution of the copy
    that does not finish at length CAP + 2 records its repeat.  Returns
    whether the copy's top resolutions picked other generator lists."""
    b = permuted(a, rng)
    v = is_gorenstein_oracle(b, CAP)
    assert (v.left, v.right, global_dimension(b, CAP)) == (verdict.left, verdict.right, gldim)
    differ = False
    for x, y in ((a, b), (opposite(a), opposite(b))):
        tx, ty = (homology._top_resolution(z, CAP + 2) for z in (x, y))
        assert ty.finished or ty.repeat is not None
        differ = differ or tx.gens != ty.gens
    a._memo.clear()
    b._memo.clear()
    return differ


def test_oracle_is_invariant_under_relabelling(sweep):
    """Id on both sides and gldim are invariants of the algebra, whatever
    coordinates its radical, top and idempotents come out in."""
    rng = random.Random(5)
    differ = [_assert_relabelling_invariant(e.algebra, e.verdict, e.gldim, rng)
              for e in sweep.values()]
    assert any(differ)


def test_oracle_is_invariant_under_a_basis_change_mod_p(sweep):
    """Id on both sides and gldim are read the same off a corpus(0) algebra
    of dim <= 12 in chars 2/3 put in a random basis over F_p (`rebased`),
    whose table mostly takes the dense route to the radical."""
    rng = random.Random(18)
    dense = 0
    for (name, ch), e in sweep.items():
        if ch not in (2, 3) or e.algebra.dim > 12:
            continue
        b, _ = rebased(e.algebra, rng)
        v = is_gorenstein_oracle(b.validate(), CAP)
        assert (v.left, v.right, global_dimension(b, CAP)) == (e.verdict.left, e.verdict.right,
                                                               e.gldim), (name, ch)
        dense += bool(algebra._associators(b))
        b._memo.clear()
    assert dense > 40, dense


def _dual_of_right_regular(a):
    """D(A_A) as a left module: e_i acts by the transpose of right
    multiplication by e_i, whose column j is e_j * e_i."""
    d = a.dim
    return ModuleRep(a, d, [Matrix.from_entries(a.field, d, d, ((j, k, c) for j in range(d)
                                                                for k, c in a.mult[j][i]))
                            for i in range(d)])


def test_right_injective_dimension_is_pd_of_the_dual_right_regular(sweep):
    """id of A_A is pd of the left module D(A_A): read as the length of its
    minimal resolution over A itself, with no `opposite`, it equals the
    oracle's right verdict, read from Ext into A^op."""
    for (name, ch), entry in sweep.items():
        a = entry.algebra
        assert projective_dimension(a, _dual_of_right_regular(a), CAP) == entry.verdict.right, \
            (name, ch)
        a._memo.clear()


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


def _block_sum(a, reps):
    """The direct sum of the modules `reps` over a, with block-diagonal
    action."""
    offsets = [0, *accumulate(m.dim for m in reps)]
    total = offsets[-1]
    return ModuleRep(a, total, [
        Matrix.from_entries(a.field, total, total,
                            ((o + r, o + c, x) for m, o in zip(reps, offsets)
                             for r, row in enumerate(m.action[t].data)
                             for c, x in enumerate(row) if x))
        for t in range(a.dim)])


def _reference_generators(a, mod, data):
    """Generators (idempotent index, vector) of mod, greedy over the
    submodule generated so far from rad(A).mod, grown by the action of
    every basis element of A."""
    f = a.field
    span = Subspace(f, mod.dim, [f.to_ints(col) for r in field_vectors(a, radical(a))
                                 for col in transpose(mod.matrix_of(r)).data])
    candidates = [transpose(mod.matrix_of(e)).data
                  for e in field_vectors(a, primitive_idempotents(a))]
    kept = []
    for i, ei in enumerate(unit_rows(mod.dim)):
        for idx, columns in enumerate(candidates):
            if span.int_contains(ei):
                break
            v = columns[i]
            if any(v) and not span.int_contains(f.to_ints(v)):
                kept.append((idx, v))
                span = Subspace(f, mod.dim, span.int_basis + [mat.int_mul_vec(f.to_ints(v))
                                                              for mat in mod.action])
        assert span.int_contains(ei)
    return kept


def _reference_resolution(a, m, length):
    """The resolution by action matrices, computed degree by degree to the
    end, with no repeat detection: each syzygy a ModuleRep restricted
    (`submodule`) from the block-diagonal sum of the principal projectives,
    and each boundary its cover composed with the inclusion of the syzygy.
    What `projective_resolution` must reproduce."""
    data = homology._principal_data(a)
    principal = [submodule(regular_module(a), sub.basis)[0] for _, sub, _ in data]
    current, incl = m, None
    gens, covers, kernel_dims = [], [], []
    finished, degree = False, -1
    for deg in range(length + 1):
        degree = deg
        if current.dim == 0:
            finished = True
            break
        kept = _reference_generators(a, current, data)
        gens.append([idx for idx, _ in kept])
        cover = Matrix.from_columns(a.field, [current.matrix_of(w).mul_vec(g)
                                              for idx, g in kept for w in data[idx][1].basis],
                                    rows=current.dim)
        covers.append(cover if incl is None else incl * cover)
        kernel = cover.kernel_basis()
        kernel_dims.append(len(kernel))
        if not kernel:
            finished = True
            break
        p = _block_sum(a, [principal[idx] for idx in gens[-1]])
        current, incl = submodule(p, kernel)
    return ResolutionTrace(gens, covers, kernel_dims, degree, finished)


def _matrix_top(a):
    """A / rad A as a ModuleRep, built through `quotient_module`: the top
    that `_reference_resolution` resolves."""
    return quotient_module(regular_module(a), field_vectors(a, radical(a)))[0]


def _trace_fields(tr):
    return (tr.gens, tr.covers, tr.kernel_dims, tr.degree_reached, tr.finished)


def _assert_top_resolutions_match_the_reference(a, length, label):
    """On both sides: the trace of the top equals the reference trace field by
    field and verifies, and the Ext it gives (ranks copied past a repeat)
    equals the Ext of the reference trace."""
    for side, b in (("left", a), ("right", opposite(a))):
        top = top_module(b)
        tr = projective_resolution(b, top, length)
        ref = _reference_resolution(b, _matrix_top(b), length)
        assert _trace_fields(tr) == _trace_fields(ref), (label, side)
        tr.verify(b)
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
    assert tr.ranks == _reference_resolution(a, _matrix_top(a), CAP + 1).ranks


def _count_module_builds(monkeypatch):
    """A list that records each ModuleRep constructed, each `combination`
    of action matrices formed, and each Matrix built from scalars by
    `Matrix.__init__` or `Matrix.from_entries`, as an action matrix is, from
    now on.  `from_columns`, which `ResolutionTrace.verify` composes covers
    with, and `from_int_columns`, which makes the covers, are not counted."""
    built = []

    def counted(fn, wrap=lambda w: w):
        def record(*args, **kwargs):
            built.append((fn.__qualname__, args))
            return fn(*args, **kwargs)
        return wrap(record)

    monkeypatch.setattr(ModuleRep, "__init__", counted(ModuleRep.__init__))
    monkeypatch.setattr(modules, "combination", counted(modules.combination))
    monkeypatch.setattr(Matrix, "__init__", counted(Matrix.__init__))
    monkeypatch.setattr(Matrix, "from_entries",
                        counted(Matrix.from_entries.__func__, classmethod))
    return built


def test_resolution_builds_no_module(monkeypatch):
    """Each syzygy stays a subspace of its projective, acted on through the
    product of the algebra: with the top and the principal projectives
    memoised, a resolution constructs no ModuleRep and no action matrix."""
    a = _s3_le2(2)
    top = top_module(a)
    homology._principal_data(a)
    built = _count_module_builds(monkeypatch)
    tr = projective_resolution(a, top, CAP + 1)
    assert tr.repeat == (4, 1) and built == []


def _span(sub):
    """The rref basis of the Subspace sub, a function of its span, hashable."""
    return sub.ambient_dim, tuple((tuple(sorted(w.items())), den) for w, den in sub.int_basis)


@pytest.mark.parametrize("label", ["s3_le2@2", "s3_le2@3", "chain_8@2"])
def test_each_one_sided_ideal_is_built_once_from_nonzero_multiples(label, monkeypatch):
    """One oracle call builds each A·f and each f·A once, on the algebra:
    the opposite is seeded with them swapped, and they equal the ideals
    built on the opposite itself from the same idempotents.  The multiples
    of a row by the basis, in the ideals and in the check of the radical,
    are formed only on the nonempty cells of the table, and no product
    multiplies a row by the whole basis.  The S3 <= 2 skeleton in chars 2
    and 3 resolves to the cap on both sides, so each side also reads its
    Hom targets, which are the ideals of the other side."""
    name, p = label.split("@")
    a = (_s3_le2(int(p)) if name == "s3_le2" else
         cat_algebra(poset_category(chain_poset(8)), Field(int(p))))
    units = unit_rows(a.dim)
    built, multiples, whole = [], [], []
    init, int_products = Subspace.__init__, FiniteDimAlgebra.int_products
    basis_multiples = algebra._basis_multiples

    def counted_init(self, field, n, rows=()):
        init(self, field, n, rows)
        built.append(_span(self))

    def counted_products(c, us, vs, modulus=None):
        whole.append(units in (us, vs))
        if multiples and multiples[-1][-1] is None:  # inside `_basis_multiples`
            side = multiples[-1][2]
            multiples[-1][-1] = [min(w) for w, _ in (us if side == "left" else vs)]
        return int_products(c, us, vs, modulus)

    def counted_multiples(c, v, side):
        multiples.append([c, v, side, None])
        return basis_multiples(c, v, side)

    monkeypatch.setattr(Subspace, "__init__", counted_init)
    monkeypatch.setattr(FiniteDimAlgebra, "int_products", counted_products)
    monkeypatch.setattr(algebra, "_basis_multiples", counted_multiples)
    verdict = is_gorenstein_oracle(a, CAP)
    monkeypatch.undo()
    b = opposite(a)
    unfinished = name == "s3_le2"
    assert verdict.gorenstein and not any(whole)
    assert all(homology._top_resolution(c, CAP + 2).finished is not unfinished for c in (a, b))
    ideals = algebra._one_sided_ideals(a)
    assert algebra._one_sided_ideals(b) == [(e, right, left) for e, left, right in ideals]
    spans = Counter(_span(sub) for _, left, right in ideals for sub in (left, right))
    assert {span: Counter(built)[span] for span in spans} == spans
    idempotents = [e for e, _, _ in ideals]
    formed = [(c, side, e) for c, e, side, _ in multiples if e in idempotents]
    assert sorted(formed, key=str) == sorted(((a, side, e) for e in idempotents
                                               for side in ("left", "right")), key=str)
    for c, (v, _), side, ts in multiples:
        assert ts and all(any(c.mult[t][j] if side == "left" else c.mult[j][t] for j in v)
                          for t in ts), (label, side)
    direct = FiniteDimAlgebra(b.field, b.basis, b.mult, b.unit)
    direct._memo[("primitive_idempotents",)] = primitive_idempotents(a)
    assert [(e, _span(left), _span(right)) for e, left, right in algebra._one_sided_ideals(direct)] \
        == [(e, _span(left), _span(right)) for e, left, right in algebra._one_sided_ideals(b)]
    if unfinished:
        assert homology._hom_spaces(a, a) == [right for _, _, right in ideals]
        assert homology._hom_spaces(b, b) == [left for _, left, _ in ideals]


def test_the_oracle_builds_no_module(monkeypatch):
    """The oracle resolves the top, reads Ext into the algebra and gldim
    from the length of that resolution, with the algebra and the top each
    acted on by the product of the algebra: on fresh algebras,
    `is_gorenstein_oracle` and `global_dimension` construct no ModuleRep,
    no action matrix and no combination of action matrices."""
    built = _count_module_builds(monkeypatch)
    for a, ids, gldim in ((_s3_le2(2), 2, ">8"),
                          (cat_algebra(poset_category(chain_poset(5)), QQ), 1, 1)):
        verdict = is_gorenstein_oracle(a, CAP)
        assert (verdict.left, verdict.right, global_dimension(a, CAP)) == (ids, ids, gldim)
    assert built == []


@pytest.mark.slow
@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_sweep_on_more_corpus_seeds(seed):
    """Every oracle verdict on corpus(seed) × chars 0/2/3/5 at cap 8 bears the
    classifier out or is unknown, every top resolution verifies and equals
    the reference one, and a relabelled copy gets the same verdicts."""
    rng = random.Random(seed)
    for (name, ch), r in cli.sweep(corpus(seed), CHARACTERISTICS, CAP).items():
        assert r.agrees is not False, (seed, name, ch)
        _assert_top_resolutions_match_the_reference(r.algebra, CAP + 2, (seed, name, ch))
        _assert_relabelling_invariant(r.algebra, r.verdict, r.gldim, rng)


def _minimal_generators_by_the_whole_radical(a, n, vectors, act, data, semisimple=False):
    """The reference for `homology._minimal_generators`: the same greedy
    search, with J·Ω spanned by every rref basis vector of J = rad A times
    every vector, the top's included, so that it rests on no lemma about
    generators of J and no J·top = 0."""
    span = Subspace(a.field, n, act(radical(a), vectors))
    kept = []
    for x in vectors:
        for idx, v in enumerate(act([e for e, _, _ in data], [x])):
            if span.int_contains(x):
                break
            if v[0] and not span.int_contains(v):
                columns = act(data[idx][1].int_basis, [v])
                kept.append((idx, columns))
                span = span.int_extend(columns)
        assert span.int_contains(x)
    return kept


def _top_traces(a, length):
    return [projective_resolution(b, top_module(b), length) for b in (a, opposite(a))]


def _traces_by_the_whole_radical(a, length, monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(homology, "_minimal_generators", _minimal_generators_by_the_whole_radical)
        return _top_traces(a, length)


def _s3_le2_export(p):
    """The S3 transporter on subsets of size <= 2, not skeletal: dim 114."""
    return algebra_from_category(s3_transporter(2), Field(p))


@pytest.mark.parametrize("char", CHARACTERISTICS)
def test_generators_of_the_radical_resolve_as_its_whole_basis(char, monkeypatch):
    """Spanning J·Ω from the generators of J mod J² changes no field of the
    left or right top resolution, on corpus(0) and the S3 <= 2 export and
    its skeleton, against the span of all of J."""
    algebras = [(name, cat_algebra(c, Field(char))) for name, c in corpus(0)]
    if char != 5:
        algebras += [("s3_le2", _s3_le2(char)), ("s3_le2_export", _s3_le2_export(char))]
    for name, a in algebras:
        expected = _traces_by_the_whole_radical(a, CAP + 2, monkeypatch)
        for side, tr, ref in zip(("left", "right"), _top_traces(a, CAP + 2), expected):
            assert (tr.gens, tr.covers, tr.kernel_dims, tr.repeat, tr.finished) == \
                (ref.gens, ref.covers, ref.kernel_dims, ref.repeat, ref.finished), (name, side)
            assert tr.verify(opposite(a) if side == "right" else a)


def test_the_radical_span_multiplies_by_the_generators_only(monkeypatch):
    """On the S3 <= 2 skeleton in char 2 the span of J·Ω at each degree
    k >= 1 is formed from |X|·dim Ω products, X the generators of J mod J²,
    fewer than dim J; degree 0, the top, forms none, as J·top = 0, and
    multiplies only single vectors."""
    a = _s3_le2(2)
    gens = algebra._radical_generators(a)
    rad = len(radical(a))
    square = Subspace(a.field, a.dim, a.int_products(radical(a), radical(a))).dim
    assert len(gens) == rad - square < rad
    degrees = []  # per degree: semisimple, the (|us|, |vs|) of each action, dim Ω
    minimal_generators = homology._minimal_generators

    def counted(a, n, vectors, act, data, semisimple=False):
        calls = []

        def counted_act(us, vs):
            calls.append((len(us), len(vs)))
            return act(us, vs)

        kept = minimal_generators(a, n, vectors, counted_act, data, semisimple)
        degrees.append((semisimple, calls, len(vectors)))
        return kept

    monkeypatch.setattr(homology, "_minimal_generators", counted)
    tr = projective_resolution(a, top_module(a), CAP + 1)
    assert tr.repeat == (4, 1) and len(degrees) == 5
    (top, calls, _), *later = degrees
    assert top and {vs for _, vs in calls} == {1}
    for semisimple, calls, omega in later:
        assert not semisimple and calls[0] == (len(gens), omega)


def _finished_sides():
    """(label, algebra, side) over corpus(0) × chars 0/2/3/5 and the S3 <= 2
    skeleton and export × chars 0/2/3."""
    for char in CHARACTERISTICS:
        algebras = [(name, cat_algebra(c, Field(char))) for name, c in corpus(0)]
        if char != 5:
            algebras += [("s3_le2", _s3_le2(char)), ("s3_le2_export", _s3_le2_export(char))]
        for name, a in algebras:
            for side, b in (("left", a), ("right", opposite(a))):
                yield (name, char, side), b


def test_a_finished_top_resolution_has_its_length_as_the_last_nonzero_ext():
    """Where the top resolution finishes, at degree n, the last nonzero
    Ext^i(top, A) through cap + 1 is Ext^n, and `injective_dimension` reads
    that n off the trace."""
    finished = 0
    for label, b in _finished_sides():
        trace = homology._top_resolution(b, CAP + 2)
        if trace.finished:
            ext = ext_dims_from_trace(b, trace, b, CAP + 1)
            assert max(i for i, e in enumerate(ext) if e) == trace.degree_reached, label
            finished += 1
    assert finished == 234 + 4, finished  # the corpus, then S3 in char 0


def _redundant_at_degree_0(monkeypatch):
    """Keep a copy of the last generator at degree 0 only: the resolution
    still finishes, at the right degree, but its boundary of degree 1 leaves
    the radical."""
    minimal_generators = homology._minimal_generators
    calls = []

    def redundant(*args):
        kept = minimal_generators(*args)
        calls.append(kept)
        return kept + kept[-1:] if len(calls) == 1 else kept

    monkeypatch.setattr(homology, "_minimal_generators", redundant)


@pytest.mark.parametrize("char", [0, 3])
def test_a_finished_trace_that_fails_verify_gives_no_injective_dimension(char, monkeypatch):
    """A finished top trace seeded into the memo is verified before its length
    is read: one with a redundant generator, or one whose last boundary is
    not injective, raises."""
    for c, n in ((poset_category(chain_poset(3)), 1), (poset_category(diamond_poset()), 2)):
        a = cat_algebra(c, Field(char))
        with monkeypatch.context() as patched:
            _redundant_at_degree_0(patched)
            redundant = projective_resolution(a, top_module(a), CAP + 2)
        assert redundant.finished and redundant.degree_reached == n
        good = projective_resolution(a, top_module(a), CAP + 2)
        last = good.covers[-1]
        padded = Matrix.from_columns(a.field, [last.column(j) for j in range(last.cols)]
                                     + [[a.field.zero] * last.rows], rows=last.rows)
        not_injective = replace(good, covers=[*good.covers[:-1], padded],
                                kernel_dims=[*good.kernel_dims[:-1], 1])
        for trace, message in ((redundant, "leaves the radical"), (not_injective, "not injective")):
            a._memo.clear()
            a._memo[("_top_resolution", CAP + 2)] = trace
            with pytest.raises(AlgebraError, match=message):
                injective_dimension(a, "left", CAP)
        a._memo.clear()
        assert injective_dimension(a, "left", CAP) == n


def test_each_top_trace_is_checked_once(monkeypatch):
    """The oracle and gldim check each top trace once: a finished side by
    `verify` in `injective_dimension`, which `global_dimension` then reads;
    an unfinished one only in `global_dimension`, for the left side."""
    checked = []
    check_minimal = homology._check_minimal

    def counted(a, trace):
        checked.append(trace)
        return check_minimal(a, trace)

    monkeypatch.setattr(homology, "_check_minimal", counted)
    chain_5, s3 = cat_algebra(poset_category(chain_poset(5)), QQ), _s3_le2(2)
    for a, sides in ((chain_5, (chain_5, opposite(chain_5))), (s3, (s3,))):
        checked.clear()
        is_gorenstein_oracle(a, CAP)
        global_dimension(a, CAP)
        assert list(map(id, checked)) == [id(homology._top_resolution(b, CAP + 2)) for b in sides]


@pytest.mark.parametrize("char", [0, 3])
def test_a_hom_image_outside_its_block_is_refused(char):
    """The image of a generator f_p has its part in a block l inside f_p·A.
    A boundary that sends f_p to the generator f_l of another block of
    P_{i-1}, which f_p kills, is refused by `ext_dims_from_trace`."""
    f = Field(char)
    a = cat_algebra(poset_category(chain_poset(3)), f)
    trace = projective_resolution(a, top_module(a), CAP + 2)
    data = homology._principal_data(a)
    cover = trace.covers[1]
    p = trace.gens[1][0]
    l, (_, lo, hi) = next((idx, block) for idx, block in
                          zip(trace.gens[0], _summands(data, trace.gens[0])) if idx != p)
    outside = [f.zero] * cover.rows
    outside[lo:hi] = f.from_ints(data[l][2], hi - lo)
    gen = f.from_ints(data[p][2], data[p][1].dim)
    first = next(k for k, x in enumerate(gen) if x)  # the columns of block p come first
    columns = [outside if k == first else [f.zero] * cover.rows
               if k < len(gen) else cover.column(k) for k in range(cover.cols)]
    broken = replace(trace, covers=[trace.covers[0], Matrix.from_columns(f, columns),
                                    *trace.covers[2:]])
    assert ext_dims_from_trace(a, trace, a, 2) == [3, 2, 0]
    with pytest.raises(AlgebraError, match="Hom differential leaves its block"):
        ext_dims_from_trace(a, broken, a, 2)


def _ext_dims_by_coords(a, trace, m, cap):
    """Reference for `ext_dims_from_trace` on a trace through P_{cap+1}:
    every differential computed, none copied; the image of each generator
    by the field-form `Matrix.mul_vec`, and each product x.w put in f_p·m by
    `Subspace.int_coords`."""
    f, data = a.field, homology._principal_data(a)
    homs = homology._hom_spaces(a, m)
    gens = trace.gens + [[] for _ in range(cap + 2 - len(trace.gens))]
    dims = [sum(homs[idx].dim for idx in g) for g in gens]
    ranks = []
    for i in range(cap + 1):
        columns = []
        if gens[i] and gens[i + 1]:
            boundary = trace.covers[i + 1]
            images = []
            for idx, (_, lo, hi) in zip(gens[i + 1], _summands(data, gens[i + 1])):
                x = [f.zero] * boundary.cols
                x[lo:hi] = f.from_ints(data[idx][2], hi - lo)
                images.append(f.to_ints(boundary.mul_vec(x)))
            for idxl, (sub, lo, hi) in zip(gens[i], _summands(data, gens[i])):
                for w in homs[idxl].int_basis:
                    column = []
                    for idxp, (v, den) in zip(gens[i + 1], images):
                        segment = {t - lo: y for t, y in v.items() if lo <= t < hi}
                        x = sub.int_from_coords((segment, den))
                        co = homs[idxp].int_coords(m.int_products([x], [w])[0])
                        assert co is not None
                        column += f.from_ints(co, homs[idxp].dim)
                    columns.append(column)
        ranks.append(Matrix.from_columns(f, columns).rank() if columns else 0)
    return [dims[i] - ranks[i] - (ranks[i - 1] if i else 0) for i in range(cap + 1)]


def test_ext_on_unfinished_sides_equals_the_reference_by_coords():
    """Where the top resolution does not finish, Ext into A and into the top
    read at the pivots of f_p·m equal Ext with every product put in f_p·m
    by `int_coords`, on corpus(0) × chars 0/2/3/5 and the S3 <= 2 skeleton
    in chars 2/3."""
    unfinished = 0
    for char in CHARACTERISTICS:
        algebras = [cat_algebra(c, Field(char)) for _, c in corpus(0)]
        algebras += [_s3_le2(char)] if char in (2, 3) else []
        for a in algebras:
            for b in (a, opposite(a)):
                trace = homology._top_resolution(b, CAP + 2)
                if trace.finished:
                    continue
                for m in (b, top_module(b)):
                    assert ext_dims_from_trace(b, trace, m, CAP + 1) == \
                        _ext_dims_by_coords(b, trace, m, CAP + 1)
                unfinished += 1
    assert unfinished == 46 + 4, unfinished  # the corpus, then S3 in chars 2/3


@pytest.mark.parametrize("label", ["s3_le2@2", "s3_le2@3"])
def test_ext_lifts_and_multiplies_only_nonzero_segments(label, monkeypatch):
    """Ext into A lifts, checks and multiplies an image only in the blocks
    where it has a segment: on the unfinished sides of the S3 <= 2 skeleton
    in chars 2 and 3, no lift handed to `int_products` is zero, and the
    dimensions equal the reference by coordinates."""
    a = _s3_le2(int(label.split("@")[1]))
    for b in (a, opposite(a)):
        trace = homology._top_resolution(b, CAP + 2)
        homology._principal_data(b), homology._hom_spaces(b, b)
        lifts = []
        int_products = FiniteDimAlgebra.int_products

        def counted(c, us, vs, modulus=None):
            lifts.extend(w for w, _ in us)
            return int_products(c, us, vs, modulus)

        monkeypatch.setattr(FiniteDimAlgebra, "int_products", counted)
        dims = ext_dims_from_trace(b, trace, b, CAP + 1)
        monkeypatch.undo()
        assert not trace.finished and lifts and all(lifts), label
        assert dims == _ext_dims_by_coords(b, trace, b, CAP + 1), label


def test_a_left_right_mismatch_raises_zaks_violation(monkeypatch):
    """The two sides are read independently and compared: a finished right
    side whose length reads 2 against a left id of 1 (chain_3), and an
    unfinished right side whose Ext is shifted one degree up (the S3 <= 2
    skeleton in char 2, id 2), are refused."""
    a = cat_algebra(poset_category(chain_poset(3)), QQ)
    opposite(a)._memo[("global_dimension", CAP)] = DimensionVerdict(2, CAP)
    with pytest.raises(ZaksViolation, match="left 1, right 2"):
        is_gorenstein_oracle(a, CAP)
    b = _s3_le2(2)
    ext = homology.ext_dims_from_trace

    def shifted(c, trace, m, cap):
        out = ext(c, trace, m, cap)
        return [0, *out[:-1]] if c is opposite(b) else out

    monkeypatch.setattr(homology, "ext_dims_from_trace", shifted)
    with pytest.raises(ZaksViolation, match="left 2, right 3"):
        is_gorenstein_oracle(b, CAP)
