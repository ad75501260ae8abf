import random
from fractions import Fraction
from itertools import product

import pytest
from inputs import HOSTILE_MATRICES, matrix_raw, s3_transporter

import eicat.algebra as algebra
from eicat.algebra import (
    AlgebraError,
    _check_orthogonal_system,
    _field_roots,
    _is_nilpotent_ideal,
    _left_mult_ints,
    _p_power_trace,
    _roots_by_splitting,
    FiniteDimAlgebra,
    ModuleRep,
    algebra_from_category,
    direct_sum,
    dual_module,
    group_algebra,
    opposite,
    primitive_idempotents,
    quotient_module,
    radical,
    regular_module,
    submodule,
    top_module,
)
from eicat.category import presentation_of
from eicat.families import chain_poset, corpus, poset_category
from eicat.groups import cyclic_group, symmetric_group_3
from eicat.linalg import QQ, Field, Matrix, Subspace, _is_prime, unit_vector


def chain_algebra(f):
    c = poset_category(chain_poset(3, ["x", "y", "z"]))
    return algebra_from_category(presentation_of(c).category, f)


def test_group_algebra_dimensions_and_validation():
    for f in (QQ, Field(2), Field(3)):
        for g in (cyclic_group(2), cyclic_group(3), symmetric_group_3()):
            a = group_algebra(g, f)
            assert a.dim == g.order
            a.validate()


def test_category_algebra_chain_dim_and_associativity():
    a = chain_algebra(QQ)
    assert a.dim == 6
    a.validate()


def test_validate_rejects_broken_structure_constants():
    f = QQ
    # x*x = x but unit u with u*x = 0: unit law broken
    a = FiniteDimAlgebra(f, ["u", "x"], [[[(0, f.one)], []], [[], [(1, f.one)]]],
                         [f.one, f.zero])
    with pytest.raises(AlgebraError):
        a.validate()


def test_opposite_is_involutive_and_reverses_products():
    a = chain_algebra(Field(3))
    b = opposite(opposite(a))
    assert b.mult == a.mult and b.unit == a.unit
    op = opposite(a)
    for i in range(a.dim):
        for j in range(a.dim):
            assert op.mult[i][j] == a.mult[j][i]
    op.validate()


def test_equality_ignores_memoised_results():
    a, b = chain_algebra(Field(2)), chain_algebra(Field(2))
    radical(a)
    top_module(a)
    assert a == b
    assert repr(a) == repr(b)


def test_memo_returns_the_same_object_and_opposite_reuses_the_radical():
    a = chain_algebra(Field(3))
    for fn in (radical, primitive_idempotents, top_module):
        assert fn(a) is fn(a)
    assert a.left_mult_matrix(1) is a.left_mult_matrix(1)
    op = opposite(a)
    assert radical(op) is radical(a)
    assert primitive_idempotents(op) is primitive_idempotents(a)
    assert top_module(op) is not top_module(a)


def test_json_roundtrip_with_fractional_scalars():
    f = QQ
    half = Fraction(1, 2)
    a = FiniteDimAlgebra(f, ["e"], [[[(0, half + half)]]], [f.one])
    a.validate()
    obj = a.to_json()
    b = FiniteDimAlgebra.from_json(obj, f)
    assert b.mult == a.mult and b.unit == a.unit
    obj["bogus"] = True
    with pytest.raises(AlgebraError):
        FiniteDimAlgebra.from_json(obj, f)


@pytest.mark.parametrize("char", [0, 3])
@pytest.mark.parametrize("scalar", [1.0, 0.5, True])
def test_from_json_rejects_float_and_bool_scalars(char, scalar):
    f = Field(char)
    obj = FiniteDimAlgebra(f, ["e"], [[[(0, f.one)]]], [f.one]).to_json()
    bad_unit = dict(obj, unit=[scalar])
    bad_table = dict(obj, table=[[0, 0, [[0, scalar]]]])
    for bad in (bad_unit, bad_table):
        with pytest.raises(AlgebraError, match="bad scalar"):
            FiniteDimAlgebra.from_json(bad, f)


def test_from_json_reads_the_hostile_matrix_base():
    a = FiniteDimAlgebra.from_json(matrix_raw(), Field(3)).validate()
    assert a.to_json() == matrix_raw() | {"table": sorted(matrix_raw()["table"])}


@pytest.mark.parametrize("case", HOSTILE_MATRICES)
def test_from_json_rejects_malformed_exports(case):
    raw, fragment = HOSTILE_MATRICES[case]
    with pytest.raises(AlgebraError) as info:
        FiniteDimAlgebra.from_json(raw, Field(3))
    assert fragment in str(info.value)


def test_radical_semisimple_group_algebra_is_zero():
    assert radical(group_algebra(cyclic_group(2), QQ)) == []
    assert radical(group_algebra(cyclic_group(3), Field(2))) == []
    assert radical(group_algebra(symmetric_group_3(), Field(5))) == []


def test_radical_modular_group_algebra():
    a = group_algebra(cyclic_group(2), Field(2))
    rad = radical(a)
    assert len(rad) == 1
    # spanned by 1 + g
    assert rad[0] == [1, 1]


def test_radical_chain_algebra_is_span_of_non_identities():
    for f in (QQ, Field(2), Field(5)):
        a = chain_algebra(f)
        rad = radical(a)
        assert len(rad) == 3
        sub = Subspace(f, a.dim, rad)
        for i, name in enumerate(a.basis):
            assert sub.contains(unit_vector(f, a.dim, i)) == (not name.startswith("id_"))


def test_radical_dimension_matches_opposite(sweep):
    """opposite() hands on the radical and idempotent system of its argument;
    both must be what an opposite algebra built from scratch, sharing no
    cached data, computes or accepts."""
    for (name, ch), entry in sweep.items():
        if ch == 5:
            continue
        a = entry.algebra
        f, d = a.field, a.dim
        fresh = FiniteDimAlgebra(f, list(a.basis),
                                 [[list(a.mult[j][i]) for j in range(d)] for i in range(d)],
                                 list(a.unit))
        op = opposite(a)
        assert op.mult == fresh.mult, (name, ch)
        assert Subspace(f, d, radical(op)).basis == Subspace(f, d, radical(fresh)).basis, \
            (name, ch)
        _check_orthogonal_system(fresh, primitive_idempotents(op))


def _brute_force_radical_dim(a):
    """Elements whose two-sided ideal is nilpotent, by full enumeration."""
    f = a.field
    p = f.characteristic
    members = []
    for coeffs in product(range(p), repeat=a.dim):
        v = [f.of(c) for c in coeffs]
        # ideal generated by v
        vecs = [v]
        for i in range(a.dim):
            ei = [f.one if t == i else f.zero for t in range(a.dim)]
            vecs.append(a.product_vec(ei, v))
            vecs.append(a.product_vec(v, ei))
            for j in range(a.dim):
                ej = [f.one if t == j else f.zero for t in range(a.dim)]
                vecs.append(a.product_vec(ei, a.product_vec(v, ej)))
        ideal = Subspace(f, a.dim, vecs)
        power = ideal.basis
        nilpotent = True
        for _ in range(a.dim + 1):
            if not power:
                break
            power = Subspace(f, a.dim, [a.product_vec(u, w)
                                        for u in power for w in ideal.basis]).basis
        else:
            nilpotent = False
        if not power:
            nilpotent = True
        if nilpotent:
            members.append(v)
    return Subspace(f, a.dim, members).dim


def test_radical_against_brute_force_on_tiny_algebras():
    cases = [
        group_algebra(cyclic_group(2), Field(2)),
        group_algebra(cyclic_group(3), Field(3)),
        group_algebra(cyclic_group(4), Field(2)),
        group_algebra(cyclic_group(2), Field(3)),
        algebra_from_category(
            presentation_of(poset_category(chain_poset(2))).category, Field(2)),
    ]
    for a in cases:
        assert len(radical(a)) == _brute_force_radical_dim(a), a.basis


def _pairwise_is_nilpotent_ideal(a, vectors):
    """Reference for `_is_nilpotent_ideal`: every basis element times every
    basis vector of I on both sides, and every pair at each power."""
    f, d = a.field, a.dim
    sub = Subspace(f, d, vectors)
    basis = sub.basis
    for i in range(d):
        ei = unit_vector(f, d, i)
        for v in basis:
            if not sub.contains(a.product_vec(ei, v)) or not sub.contains(a.product_vec(v, ei)):
                return False
    power = list(basis)
    while power:
        nxt = Subspace(f, d, [a.product_vec(u, v) for u in power for v in basis])
        if nxt.dim >= len(power) and nxt.dim > 0:
            return False
        power = nxt.basis
    return True


def _ideal_candidates(a, rng):
    """Spanning sets for the generator check to judge: the radical, the whole
    algebra, nothing, random parts of the radical, the radical plus a random
    vector, and the left, right and two-sided ideals of a basis element, the
    two-sided one with and without the radical."""
    f, d = a.field, a.dim
    units = [unit_vector(f, d, i) for i in range(d)]
    rad = radical(a)
    yield rad
    yield units
    yield []
    for _ in range(2):
        yield rng.sample(rad, rng.randrange(len(rad) + 1))
    yield [*rad, [f.of(rng.randrange(-2, 3)) for _ in range(d)]]
    for i in rng.sample(range(d), min(d, 2)):
        left = [a.product_vec(e, units[i]) for e in units]
        right = [a.product_vec(units[i], e) for e in units]
        both = [a.product_vec(w, e) for w in left for e in units]
        yield left
        yield right
        yield both
        yield [*both, *rad]


def test_generator_check_agrees_with_the_pairwise_check(corpus_items):
    rng = random.Random(11)
    verdicts = []
    for name, c in corpus_items:
        for ch in (0, 2, 3):
            a = algebra_from_category(c, Field(ch))
            for vectors in _ideal_candidates(a, rng):
                expect = _pairwise_is_nilpotent_ideal(a, vectors)
                assert _is_nilpotent_ideal(a, vectors) == expect, (name, ch, vectors)
                verdicts.append(expect)
    assert verdicts.count(False) >= 100 and verdicts.count(True) >= 100, len(verdicts)


def test_left_mult_ints_is_the_action_matrix(corpus_items):
    rng = random.Random(12)
    for name, c in corpus_items:
        for ch in (2, 3, 5):
            a = algebra_from_category(c, Field(ch))
            reg = regular_module(a)
            for b in [*radical(a), [rng.randrange(ch) for _ in range(a.dim)]]:
                assert _left_mult_ints(a, b) == reg.matrix_of(b).data, (name, ch, b)


def test_primitive_idempotents_counts():
    # Q[Z/2] = Q x Q; F2[Z/2] local; Q[S3] = Q x Q x M2(Q)
    assert len(primitive_idempotents(group_algebra(cyclic_group(2), QQ))) == 2
    assert len(primitive_idempotents(group_algebra(cyclic_group(2), Field(2)))) == 1
    assert len(primitive_idempotents(group_algebra(symmetric_group_3(), QQ))) == 4
    # chain A3: three vertices, each field: three primitives
    assert len(primitive_idempotents(chain_algebra(QQ))) == 3


def test_primitive_idempotent_system_is_orthogonal(sweep):
    for (name, ch), entry in sweep.items():
        if ch != 2:
            continue
        a = entry.algebra
        prims = primitive_idempotents(a)
        f = a.field
        total = [f.zero] * a.dim
        for e in prims:
            assert a.product_vec(e, e) == e
            total = [f.add(x, y) for x, y in zip(total, e)]
        assert total == list(a.unit)


def test_top_module_dimension():
    a = group_algebra(cyclic_group(2), Field(2))
    assert top_module(a).dim == 1
    b = chain_algebra(QQ)
    assert top_module(b).dim == b.dim - len(radical(b))


def test_module_constructions_validate():
    a = chain_algebra(Field(2))
    regular_module(a).validate()
    direct_sum(a, [regular_module(a)] * 2).validate()
    top_module(a).validate()
    dual_module(regular_module(a)).validate()


def test_matrix_of_columns_are_the_action_on_unit_vectors():
    for name, c in corpus(0)[:6]:
        for f in (QQ, Field(2), Field(3)):
            a = algebra_from_category(presentation_of(c).category, f)
            rng = random.Random(name)
            v = [f.of(Fraction(rng.randint(-3, 3), rng.choice([1, 5]))) for _ in range(a.dim)]
            for m in (regular_module(a), top_module(a)):
                for avec in [a.unit, v, *radical(a)[:2]]:
                    mat = m.matrix_of(avec)
                    assert [mat.column(t) for t in range(m.dim)] == \
                        [m.act(avec, unit_vector(f, m.dim, t)) for t in range(m.dim)], name


def test_coefficient_vectors_of_the_wrong_length_are_refused():
    f = QQ
    a = chain_algebra(f)
    m = regular_module(a)
    e0 = unit_vector(f, a.dim, 0)
    for avec in ([f.one], a.unit + [f.zero]):
        with pytest.raises(ValueError):
            m.act(avec, e0)
        with pytest.raises(ValueError):
            m.matrix_of(avec)
        with pytest.raises(ValueError):
            a.product_vec(avec, e0)
        with pytest.raises(ValueError):
            a.product_vec(e0, avec)


@pytest.mark.parametrize("char", [0, 2])
def test_module_validate_rejects_a_broken_action(char):
    f = Field(char)
    a = chain_algebra(f)
    m = regular_module(a)
    zero = ModuleRep(a, m.dim, [Matrix.zeros(f, m.dim, m.dim) for _ in m.action])
    with pytest.raises(AlgebraError, match="unit does not act"):
        zero.validate()
    action = [mat.copy() for mat in m.action]
    non_identity = next(i for i in range(a.dim) if a.unit[i] == 0)
    action[non_identity].data[0][0] = f.one if action[non_identity].data[0][0] == 0 else f.zero
    with pytest.raises(AlgebraError, match="incompatible with product"):
        ModuleRep(a, m.dim, action).validate()


def test_submodule_and_quotient_split_dimensions():
    a = group_algebra(cyclic_group(2), Field(2))
    m = regular_module(a)
    rad = radical(a)
    sub, incl = submodule(m, rad)
    quo, proj = quotient_module(m, rad)
    sub.validate()
    quo.validate()
    assert sub.dim + quo.dim == m.dim
    assert incl.cols == sub.dim and proj.rows == quo.dim


def _inverse_projection(f, n, vectors):
    """The projection onto k^n / span(vectors) as the last rows of the
    inverse of the adapted basis [rref basis of the span | complement e_i]."""
    sub = Subspace(f, n, vectors)
    cols = sub.basis + [unit_vector(f, n, i) for i in sub.complement_pivots()]
    basis = Matrix.from_columns(f, cols, rows=n)
    aug = Matrix(f, [row + unit_vector(f, n, i) for i, row in enumerate(basis.data)])
    inverse, rank, _ = aug.rref()
    assert rank == n
    return [row[n:] for row in inverse.data[sub.dim:]]


@pytest.mark.parametrize("char", [0, 2, 3])
def test_quotient_projection_inverts_the_adapted_basis(char):
    f = Field(char)
    for a in (chain_algebra(f), group_algebra(symmetric_group_3(), f)):
        m = regular_module(a)
        whole = [unit_vector(f, a.dim, i) for i in range(a.dim)]
        for vectors in (radical(a), [], whole, [a.unit]):
            quo, proj = quotient_module(m, vectors)
            assert (proj.rows, proj.cols) == (quo.dim, m.dim)
            assert proj.data == _inverse_projection(f, m.dim, vectors)
            if vectors is radical(a):
                reps = Subspace(f, m.dim, vectors).complement_pivots()
                for mat, qmat in zip(m.action, quo.action):
                    assert [qmat.column(k) for k in range(quo.dim)] == \
                        [proj.mul_vec(mat.column(i)) for i in reps]


def test_radical_dims_of_modular_group_algebras():
    cases = [(cyclic_group(4), 2, 3), (cyclic_group(3), 3, 2), (cyclic_group(6), 2, 3),
             (symmetric_group_3(), 2, 1), (symmetric_group_3(), 3, 4)]
    for g, p, dim in cases:
        assert len(radical(group_algebra(g, Field(p)))) == dim, (g.order, p)


def test_radical_is_span_of_non_isomorphisms_when_p_divides_no_aut_order(sweep):
    """For a skeletal EI category with every |Aut(x)| invertible in k, each
    k Aut(x) is semisimple (Maschke), so rad kC is the span of the
    non-isomorphisms."""
    checked = 0
    for (name, ch), entry in sweep.items():
        pres = entry.report.presentation
        if ch == 0 or any(g.order % ch == 0 for g in pres.aut.values()):
            continue
        assert len(radical(entry.algebra)) == len(pres.factorizations.non_isos), (name, ch)
        checked += 1
    assert checked >= 60


def _larger_char_p_algebras():
    return [("chain_8", algebra_from_category(
                presentation_of(poset_category(chain_poset(8))).category, Field(2)), 28)] + \
        [(f"s3_subsets_le2@{p}", algebra_from_category(
            presentation_of(s3_transporter(2)).category, Field(p)), dim)
         for p, dim in ((2, 19), (3, 20))]


def test_radical_dims_past_level_zero():
    """These three run the characteristic-p chain past its first member."""
    for name, a, dim in _larger_char_p_algebras():
        assert len(radical(a)) == dim, name


def test_p_power_trace_matches_unbounded_powers():
    rng = random.Random(4)
    for p in (2, 3, 5):
        for q in (1, p, p * p, p ** 3):
            for n in (1, 2, 5, 8):
                m = [[rng.choice([0, 0, rng.randrange(-9, 10)]) for _ in range(n)]
                     for _ in range(n)]
                power = [[int(i == j) for j in range(n)] for i in range(n)]
                for _ in range(q):
                    power = [[sum(power[i][t] * m[t][j] for t in range(n)) for j in range(n)]
                             for i in range(n)]
                expect = sum(power[i][i] for i in range(n)) % (p * q)
                assert _p_power_trace(m, q, p * q) == expect, (p, q, n)


def test_chain_evaluates_each_level_on_a_basis_and_verifies_once(monkeypatch):
    """The p-power trace is taken once per basis vector of the previous chain
    member, never per pair of them; each earlier level is ruled out by the
    squaring certificate, and only the radical gets the full check."""
    a = _larger_char_p_algebras()[0][1]
    traces_at, checks, certified = {}, [], []

    def counted_trace(m, q, *rest):
        traces_at[q] = traces_at.get(q, 0) + 1
        return _p_power_trace(m, q, *rest)

    def counted_check(*args):
        checks.append(args)
        return is_nilpotent_ideal(*args)

    def counted_certificate(*args):
        certified.append(has_non_nilpotent(*args))
        return certified[-1]

    is_nilpotent_ideal = algebra._is_nilpotent_ideal
    has_non_nilpotent = algebra._has_non_nilpotent
    monkeypatch.setattr(algebra, "_p_power_trace", counted_trace)
    monkeypatch.setattr(algebra, "_is_nilpotent_ideal", counted_check)
    monkeypatch.setattr(algebra, "_has_non_nilpotent", counted_certificate)
    assert len(radical(a)) == 28
    assert traces_at and all(n < a.dim for n in traces_at.values()), traces_at
    assert certified == [True] * len(traces_at) + [False]  # levels 0, p, p^2, ...
    assert len(checks) == 1


def _scan_roots(p, poly):
    return [r for r in range(p) if sum(c * r ** i for i, c in enumerate(poly)) % p == 0]


def test_field_roots_match_a_scan_of_the_field():
    rng = random.Random(7)
    for p in [n for n in range(60) if _is_prime(n)]:
        f = Field(p)
        for _ in range(30):
            # a product of random linear factors, with repeats, and a random cofactor
            poly = [rng.randrange(p) for _ in range(rng.randint(0, 4))] + [rng.randrange(1, p)]
            for _ in range(rng.randint(0, 5)):
                r = rng.randrange(min(p, 4)) if rng.random() < 0.3 else rng.randrange(p)
                poly = algebra._poly_mul(f, poly, [f.neg(r), f.one])
            if len(poly) < 2:
                continue
            expect = _scan_roots(p, poly)
            assert _field_roots(f, poly) == expect, (p, poly)
            if p > 2:
                assert _roots_by_splitting(f, poly) == expect, (p, poly)


def test_field_roots_in_a_large_prime_field():
    p = 1000000007
    f = Field(p)
    roots = [3, 17, p - 1, 123456789]
    poly = [f.one]
    for r in roots + [17]:
        poly = algebra._poly_mul(f, poly, [f.neg(r), f.one])
    poly = algebra._poly_mul(f, poly, [1, 0, 1])  # x^2 + 1, no root as p = 3 mod 4
    assert _field_roots(f, poly) == sorted(roots)
