import hashlib
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from inputs import HOSTILE_MATRICES, matrix_raw, rebased, s3_transporter
from modules import (
    ModuleRep,
    dual_module,
    field_vectors,
    quotient_module,
    regular_module,
    submodule,
)

import eicat.algebra as algebra
from eicat.algebra import (
    AlgebraError,
    _check_orthogonal_system,
    _field_roots,
    _is_nilpotent_ideal,
    _p_power_trace,
    _radical_generators,
    _rational_roots,
    _roots_by_splitting,
    _squarefree_ints,
    FiniteDimAlgebra,
    algebra_from_category,
    group_algebra,
    opposite,
    primitive_idempotents,
    radical,
    top_module,
)
from eicat.category import presentation_of
from eicat.families import chain_poset, corpus, poset_category
from eicat.groups import cyclic_group, symmetric_group_3
from eicat.linalg import QQ, Field, Matrix, Subspace, _is_prime, unit_rows, unit_vector


def chain_algebra(f):
    c = poset_category(chain_poset(3, ["x", "y", "z"]))
    return algebra_from_category(presentation_of(c).category, f)


def _product(a, u, v):
    """u * v for coefficient vectors, through `int_products`."""
    f = a.field
    return f.from_ints(a.int_products([f.to_ints(u)], [f.to_ints(v)])[0], a.dim)


def _ints(poly):
    """A polynomial with Fraction coefficients as ints over one denominator."""
    w, _ = QQ.to_ints(poly)
    return [w.get(i, 0) for i in range(len(poly))]


def _span(f, n, vectors):
    """The Subspace of k^n spanned by coefficient vectors."""
    return Subspace(f, n, map(f.to_ints, vectors))


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


def _reference_validate(a):
    """What `FiniteDimAlgebra.validate` must conclude, by the dense triple
    loop over field scalars: None, or the message of the first failure in
    lexicographic order, the unit law on each basis element before
    associativity on each triple (i, j, t)."""
    f, d = a.field, a.dim

    def mul(u, v):
        out = [f.zero] * d
        for i, j in product([i for i in range(d) if u[i] != 0], [j for j in range(d) if v[j] != 0]):
            for k, c in a.mult[i][j]:
                out[k] = f.add(out[k], f.mul(f.mul(u[i], v[j]), c))
        return out

    units = [unit_vector(f, d, i) for i in range(d)]
    for i, e in enumerate(units):
        if mul(a.unit, e) != e or mul(e, a.unit) != e:
            return f"unit law fails at basis element {i}"
    for i, j, t in product(range(d), repeat=3):
        if mul(mul(units[i], units[j]), units[t]) != mul(units[i], mul(units[j], units[t])):
            return f"associativity fails at ({i}, {j}, {t})"
    return None


def _validate_verdict(a):
    try:
        a.validate()
    except AlgebraError as e:
        return str(e)
    return None


@pytest.mark.parametrize("char, least", [(0, (1, 3, 3)), (3, (1, 3, 3))])
def test_validate_names_the_least_non_associative_triple(char, least):
    """A table with a two-sided unit whose products fail associativity at
    (1, 3, 3), (3, 1, 3) and, but for char 3, (3, 3, 1): `validate` refuses
    it at the least triple, although t = 1 comes first in its own walk."""
    f = Field(char)
    one, half = f.one, f.of(Fraction(1, 2))
    mult = [[[(j, one)] for j in range(4)]] + [[[(i, one)], [], [], []] for i in range(1, 4)]
    mult[1][3] = [(2, f.neg(one))]
    mult[3][1] = [(1, f.neg(one))]
    mult[3][3] = [(3, half)]
    a = FiniteDimAlgebra(f, ["1", "x", "y", "z"], mult, unit_vector(f, 4, 0))
    message = "associativity fails at (%d, %d, %d)" % least
    assert _reference_validate(a) == message
    with pytest.raises(AlgebraError, match=re.escape(message)):
        a.validate()


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_validate_agrees_with_the_dense_reference(char):
    """On every corpus(0) algebra, and on mutants of each with one structure
    constant scaled by 2 (0 in char 2) or moved to another basis element,
    `validate` reaches the verdict of the dense triple loop: the same
    message, or none.  The mutated product is one of two non-identities
    where there is one, so that most mutants keep the unit law."""
    f = Field(char)
    rng = random.Random(char)
    refused = Counter()
    for name, c in corpus(0):
        a = algebra_from_category(presentation_of(c).category, f)
        assert _validate_verdict(a) is None is _reference_validate(a), name
        cells = [(i, j) for i, j in product(range(a.dim), repeat=2) if a.mult[i][j]]
        cells = [(i, j) for i, j in cells if a.unit[i] == a.unit[j] == 0] or cells
        for _ in range(3):
            i, j = rng.choice(cells)
            k, x = a.mult[i][j][0]
            for pair in ((k, f.mul(f.of(2), x)), ((k + rng.randrange(1, a.dim)) % a.dim, x)):
                mult = [[list(pairs) for pairs in row] for row in a.mult]
                mult[i][j] = [pair]
                mutant = FiniteDimAlgebra(f, a.basis, mult, a.unit)
                verdict = _reference_validate(mutant)
                assert _validate_verdict(mutant) == verdict, (name, i, j, pair)
                refused[verdict and verdict.split(" fails")[0]] += 1
    assert refused["associativity"] > 100 and refused["unit law"] > 10


@pytest.mark.parametrize("char", [0, 2, 3])
def test_associators_are_the_integer_associators(char):
    """`_associators` holds, for each triple whose associator on the int
    structure constants is nonzero over Z, the gcd of its coefficients, as
    a dense triple loop over ints finds, on random 4-dim tables with
    constants 1 and 2 in char 0 and in [1, p) in char p: in char 2 many of
    them are even, so nonzero over Z but zero over F_2."""
    rng = random.Random(char)
    f, d = Field(char), 4
    units = [[int(i == j) for j in range(d)] for i in range(d)]
    even = 0
    for _ in range(40):
        mult = [[[(k, f.of(rng.randrange(1, char or 3)))
                  for k in rng.sample(range(d), rng.choice([0, 1, 2]))]
                 for _ in range(d)] for _ in range(d)]
        a = FiniteDimAlgebra(f, list(range(d)), mult, unit_vector(f, d, 0))

        def mul(u, v):
            out = [0] * d
            for i, j in product(range(d), repeat=2):
                for k, c in mult[i][j]:
                    out[k] += u[i] * v[j] * int(c)
            return out

        expect = {}
        for i, j, t in product(range(d), repeat=3):
            e_i, e_j, e_t = units[i], units[j], units[t]
            left, right = mul(mul(e_i, e_j), e_t), mul(e_i, mul(e_j, e_t))
            content = gcd(*(x - y for x, y in zip(left, right)))
            if content:
                expect[i, j, t] = content
        assert algebra._associators(a) == expect
        even += any(content % 2 == 0 for content in expect.values())
    assert even > 5, even


@given(st.sampled_from([0, 2, 3]), st.data())
@settings(max_examples=60, deadline=None)
def test_int_products_converted_at_the_edge_equal_the_field_products(char, data):
    """`int_products` on int rows, converted at the edge, equals a dense
    product over field scalars, on random structure constants and factors:
    zero factors, entries with different denominators, the rows of
    `Field.to_ints`, and int rows not in lowest terms (mod p, not reduced);
    the results hold their nonzero entries only, mod p reduced into [1, p)
    and over denominator 1."""
    f = Field(char)
    p = f.characteristic
    scalar = st.integers(0, 3 * p) if p else \
        st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=6)
    d = data.draw(st.integers(1, 4))
    pairs = st.lists(st.tuples(st.integers(0, d - 1), scalar.map(f.of)), max_size=2)
    a = FiniteDimAlgebra(f, list(range(d)), [[data.draw(pairs) for _ in range(d)] for _ in range(d)],
                         unit_vector(f, d, 0))
    vector = st.lists(scalar.map(f.of), min_size=d, max_size=d)
    us = data.draw(st.lists(vector, max_size=3)) + [[f.zero] * d]
    vs = [[f.zero] * d] + data.draw(st.lists(vector, min_size=1, max_size=3))

    def int_row(v):
        w, den = f.to_ints(v)
        k = data.draw(st.integers(1, 3))
        return ({i: w.get(i, 0) + k * p for i in range(d)}, 1) if p else \
            ({i: w.get(i, 0) * k for i in range(d)}, den * k)

    def dense(u, v):
        out = [f.zero] * d
        for i, j in product(range(d), repeat=2):
            for k, c in a.mult[i][j]:
                out[k] = f.add(out[k], f.mul(f.mul(u[i], v[j]), c))
        return out

    expected = [dense(u, v) for u in us for v in vs]
    for rows in (a.int_products([f.to_ints(u) for u in us], [f.to_ints(v) for v in vs]),
                 a.int_products([int_row(u) for u in us], [int_row(v) for v in vs])):
        assert [f.from_ints(row, d) for row in rows] == expected
        assert all(0 < x < p if p else x for w, _ in rows for x in w.values())
        if p:
            assert all(den == 1 for _, den in rows)


_CORPUS_ALGEBRAS = {}


@given(st.sampled_from([0, 2, 3, 5]), st.data())
@settings(max_examples=80, deadline=None)
def test_int_products_on_corpus_algebras_match_the_dense_product(corpus_items, char, data):
    """`int_products` on corpus(0) algebras, against the product summed over
    every pair of basis elements on field scalars: factors with zero,
    repeated and no rows, not in lowest terms (in characteristic p, not
    reduced), in characteristic 0 with denominators; the results hold their
    nonzero entries only, reduced into [1, p) over 1 in characteristic p."""
    name, c = data.draw(st.sampled_from(corpus_items))
    if (name, char) not in _CORPUS_ALGEBRAS:
        _CORPUS_ALGEBRAS[name, char] = algebra_from_category(presentation_of(c).category,
                                                             Field(char))
    a = _CORPUS_ALGEBRAS[name, char]
    f, d, p = a.field, a.dim, char
    scalar = st.integers(0, p - 1) if p else \
        st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=6)
    vector = st.lists(scalar.map(f.of), min_size=d, max_size=d)
    us, vs = (data.draw(st.lists(vector, max_size=3)) for _ in range(2))
    us += data.draw(st.sampled_from([[], [[f.zero] * d], us[:1]]))
    vs += data.draw(st.sampled_from([[], [[f.zero] * d], vs[:1]]))
    k = data.draw(st.integers(1, 3))

    def int_row(v):
        w, den = f.to_ints(v)
        return ({i: w.get(i, 0) + k * p for i in range(d)}, 1) if p else \
            ({i: w.get(i, 0) * k for i in range(d)}, den * k)

    def dense(u, v):
        out = [f.zero] * d
        for i, j in product(range(d), repeat=2):
            for t, c in a.mult[i][j]:
                out[t] = f.add(out[t], f.mul(f.mul(u[i], v[j]), c))
        return out

    rows = a.int_products([int_row(u) for u in us], [int_row(v) for v in vs])
    assert [f.from_ints(row, d) for row in rows] == [dense(u, v) for u in us for v in vs]
    assert all(0 <= i < d and (0 < x < p if p else x) for w, _ in rows for i, x in w.items())
    assert all(den == 1 for _, den in rows) if p else all(den > 0 for _, den in rows)


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
    """Each result is memoised once; a top module is made fresh around the
    memoised quotient, so no memo value refers back to a.  The opposite
    reuses the radical, its generators, the idempotents and the one-sided
    ideals, these swapped."""
    a = chain_algebra(Field(3))
    for fn in (radical, primitive_idempotents, algebra._top_space):
        assert fn(a) is fn(a)
    assert top_module(a) is not top_module(a) and top_module(a).space is algebra._top_space(a)
    op = opposite(a)
    assert sorted(op._memo) == [("_one_sided_ideals",), ("_radical_generators",),
                                ("primitive_idempotents",), ("radical",)]
    assert radical(op) is radical(a)
    assert primitive_idempotents(op) is primitive_idempotents(a)
    assert [(e, left, right) for e, right, left in algebra._one_sided_ideals(op)] == \
        algebra._one_sided_ideals(a)
    assert top_module(op).space is not top_module(a).space


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
    # spanned by 1 + g
    assert field_vectors(a, radical(a)) == [[1, 1]]


def test_radical_chain_algebra_is_span_of_non_identities():
    for f in (QQ, Field(2), Field(5)):
        a = chain_algebra(f)
        rad = radical(a)
        assert len(rad) == 3
        sub = Subspace(f, a.dim, rad)
        for row, name in zip(unit_rows(a.dim), a.basis):
            assert sub.int_contains(row) == (not name.startswith("id_"))


def test_radical_generators_span_the_radical_mod_its_square(corpus_items):
    """The generators X are dim J - dim J² rows of J = rad A whose span with
    J² is J, shared with the opposite algebra; J = 0 has none.  On corpus(0)
    and the S3 <= 2 export (dim 114, not skeletal), in chars 0/2/3/5."""
    categories = [presentation_of(c).category for _, c in corpus_items] + [s3_transporter(2)]
    for c, char in product(categories, (0, 2, 3, 5)):
        a = algebra_from_category(c, Field(char))
        rows, gens = radical(a), _radical_generators(a)
        square = Subspace(a.field, a.dim, a.int_products(rows, rows))
        assert len(gens) == len(rows) - square.dim
        assert all(row in rows for row in gens)
        assert square.int_extend(gens).dim == len(rows) == Subspace(a.field, a.dim, rows).dim
        assert _radical_generators(opposite(a)) is gens
    for a in (group_algebra(symmetric_group_3(), Field(5)), group_algebra(cyclic_group(2), QQ)):
        assert radical(a) == [] and _radical_generators(a) == []


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
        assert Subspace(f, d, radical(op)).int_basis == \
            Subspace(f, d, radical(fresh)).int_basis, (name, ch)
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
            vecs.append(_product(a, ei, v))
            vecs.append(_product(a, v, ei))
            for j in range(a.dim):
                ej = [f.one if t == j else f.zero for t in range(a.dim)]
                vecs.append(_product(a, ei, _product(a, v, ej)))
        ideal = _span(f, a.dim, vecs)
        power = ideal.basis
        nilpotent = True
        for _ in range(a.dim + 1):
            if not power:
                break
            power = _span(f, a.dim, [_product(a, u, w) for u in power for w in ideal.basis]).basis
        else:
            nilpotent = False
        if not power:
            nilpotent = True
        if nilpotent:
            members.append(v)
    return _span(f, a.dim, members).dim


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
    sub = _span(f, d, vectors)
    basis = sub.basis
    for i in range(d):
        ei = unit_vector(f, d, i)
        for v in basis:
            if not sub.int_contains(f.to_ints(_product(a, ei, v))) or \
                    not sub.int_contains(f.to_ints(_product(a, v, ei))):
                return False
    power = list(basis)
    while power:
        nxt = _span(f, d, [_product(a, u, v) for u in power for v in basis])
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
    rad = field_vectors(a, radical(a))
    yield rad
    yield units
    yield []
    for _ in range(2):
        yield rng.sample(rad, rng.randrange(len(rad) + 1))
    yield [*rad, [f.of(rng.randrange(-2, 3)) for _ in range(d)]]
    for i in rng.sample(range(d), min(d, 2)):
        left = [_product(a, e, units[i]) for e in units]
        right = [_product(a, units[i], e) for e in units]
        both = [_product(a, w, e) for w in left for e in units]
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
                sub = _span(a.field, a.dim, vectors)
                got = _is_nilpotent_ideal(a, sub)
                assert (got is not None) == expect, (name, ch, vectors)
                if expect:  # the square it hands back is span I·I
                    rows = sub.int_basis
                    square = Subspace(a.field, a.dim, a.int_products(rows, rows))
                    assert got.int_basis == square.int_basis, (name, ch, vectors)
                verdicts.append(expect)
    assert verdicts.count(False) >= 100 and verdicts.count(True) >= 100, len(verdicts)


def test_left_mult_ints_is_the_action_matrix(corpus_items):
    """The dense p-power traces of the radical read L_b transposed from
    `int_products([b], units)`: row j is b.e_j, converted at the edge."""
    rng = random.Random(12)
    for name, c in corpus_items:
        for ch in (2, 3, 5):
            a = algebra_from_category(c, Field(ch))
            reg = regular_module(a)
            units = unit_rows(a.dim)
            for b in [*field_vectors(a, radical(a)), [rng.randrange(ch) for _ in range(a.dim)]]:
                transposed = [a.field.from_ints(w, a.dim)
                              for w in a.int_products([a.field.to_ints(b)], units)]
                assert list(map(list, zip(*transposed))) == reg.matrix_of(b).data, (name, ch, b)


def _cyclic_idempotent_count(n, p):
    """The number of primitive idempotents of k[Z_n], one per irreducible
    factor of x^n - 1 over k: the divisors d of n in characteristic 0 (one
    cyclotomic factor each); in characteristic p, with n' the p'-part of n,
    the orbits of x -> p x on Z/n' (the p-cyclotomic cosets), as
    x^n - 1 = (x^n' - 1)^(n / n')."""
    if p == 0:
        return sum(n % d == 0 for d in range(1, n + 1))
    while n % p == 0:
        n //= p
    seen, orbits = set(), 0
    for x in range(n):
        orbits += x not in seen
        while x not in seen:
            seen.add(x)
            x = x * p % n
    return orbits


def test_primitive_idempotents_counts():
    # Q[Z/2] = Q x Q; F2[Z/2] local; Q[S3] = Q x Q x M2(Q)
    assert len(primitive_idempotents(group_algebra(cyclic_group(2), QQ))) == 2
    assert len(primitive_idempotents(group_algebra(cyclic_group(2), Field(2)))) == 1
    assert len(primitive_idempotents(group_algebra(symmetric_group_3(), QQ))) == 4
    # chain A3: three vertices, each field: three primitives
    assert len(primitive_idempotents(chain_algebra(QQ))) == 3
    # k[Z_n]: corners split by a root, irreducible quadratic corners, and
    # local algebras, each minimal polynomial the first Krylov dependency
    for n in range(2, 7):
        for p in (0, 2, 3, 5, 7, 13):
            got = len(primitive_idempotents(group_algebra(cyclic_group(n), Field(p))))
            assert got == _cyclic_idempotent_count(n, p), (n, p)


# sha256 of repr(field_vectors(a, primitive_idempotents(a))), values and
# order, over each family of `test_primitive_idempotents_are_pinned`
_IDEMPOTENT_DIGESTS = {
    "corpus": "8dcbe0b700efdb5e26ce54fd3a80780733d2e2e5da3c8edaaedf1a8d20b4bf93",
    "s3": "d6cce125822b9765e36818949fd04673a51ac67d66602f9cfcc42e4418cdbb53",
    "rebased": "ece04d7b53d31f2f31cfd4efc9bfdda8e6f00df6cf7d5be7f5a6c20b5261f206",
}


def test_primitive_idempotents_are_pinned(corpus_items):
    """The idempotents, values and order, of corpus(0) in chars 0/2/3/5, of
    the S3 transporter on the subsets of size <= 2 in chars 0/2/3, and of
    four corpus members in chars 2/3 in a basis changed mod p (`rebased`,
    seed 19): there the unit is the only seed, and most of the tables are
    not integral."""
    def algebra_of(c, p):
        return algebra_from_category(presentation_of(c).category, Field(p))

    rng = random.Random(19)
    families = {
        "corpus": [algebra_of(c, p) for _, c in corpus_items for p in (0, 2, 3, 5)],
        "s3": [algebra_of(s3_transporter(2), p) for p in (0, 2, 3)],
        "rebased": [rebased(algebra_of(c, p), rng)[0].validate()
                    for _, c in corpus_items[:12:3] for p in (2, 3)],
    }
    for name, algebras in families.items():
        digest = hashlib.sha256()
        for a in algebras:
            digest.update(repr(field_vectors(a, primitive_idempotents(a))).encode() + b"\n")
        assert digest.hexdigest() == _IDEMPOTENT_DIGESTS[name], name


def test_primitive_idempotent_system_is_orthogonal(sweep):
    for (name, ch), entry in sweep.items():
        if ch != 2:
            continue
        a = entry.algebra
        prims = field_vectors(a, primitive_idempotents(a))
        f = a.field
        total = [f.zero] * a.dim
        for e in prims:
            assert _product(a, e, e) == e
            total = [f.add(x, y) for x, y in zip(total, e)]
        assert total == list(a.unit)


@pytest.mark.parametrize("char", [0, 2, 3])
def test_orthogonal_system_check_names_each_fault(char):
    """`_check_orthogonal_system` accepts the idempotents of the chain x -> y
    -> z and refuses, by name, id_x + (y -> z) in place of id_x, a system
    without id_x, and in char p the p + 1 copies of 1: idempotents that sum
    to 1 but are not orthogonal (in char 0 idempotents that sum to 1 are
    orthogonal, as the trace of each is its rank)."""
    a = chain_algebra(Field(char))
    f, d = a.field, a.dim
    _check_orthogonal_system(a, primitive_idempotents(a))
    prims = field_vectors(a, primitive_idempotents(a))
    e = unit_vector(f, d, a.basis.index("id_x"))
    rest = [x for x in prims if x != e]
    bad = list(e)
    bad[a.basis.index("y_to_z")] = f.one
    cases = [([bad, *rest], "non-idempotent in primitive system"),
             (rest, "idempotent system does not sum to the unit")]
    if char:
        cases.append(([a.unit] * (char + 1), "idempotent system not orthogonal"))
    for system, message in cases:
        with pytest.raises(AlgebraError, match=message):
            _check_orthogonal_system(a, [f.to_ints(e) for e in system])


def test_top_module_dimension():
    a = group_algebra(cyclic_group(2), Field(2))
    assert top_module(a).dim == 1
    b = chain_algebra(QQ)
    assert top_module(b).dim == b.dim - len(radical(b))


def _matrix_top(a):
    """A / rad A as a ModuleRep, built through `quotient_module`."""
    return quotient_module(regular_module(a), field_vectors(a, radical(a)))[0]


def test_module_constructions_validate():
    a = chain_algebra(Field(2))
    regular_module(a).validate()
    _matrix_top(a).validate()
    dual_module(regular_module(a)).validate()


def _module_products(m, us, vs):
    """m.int_products on coefficient vectors, converted at the edge."""
    f = m.algebra.field
    return [f.from_ints(w, m.dim) for w in m.int_products(list(map(f.to_ints, us)),
                                                          list(map(f.to_ints, vs)))]


def test_matrix_of_columns_are_the_action_on_unit_vectors():
    """A ModuleRep's `int_products` applies the columns of `matrix_of`, and
    the top's `int_products` is the action of the ModuleRep quotient
    A / rad A."""
    for name, c in corpus(0)[:6]:
        for f in (QQ, Field(2), Field(3)):
            a = algebra_from_category(presentation_of(c).category, f)
            rng = random.Random(name)
            v = [f.of(Fraction(rng.randint(-3, 3), rng.choice([1, 5]))) for _ in range(a.dim)]
            avecs = [a.unit, v, *field_vectors(a, radical(a)[:2])]
            matrix_top = _matrix_top(a)
            for m in (regular_module(a), matrix_top):
                units = [unit_vector(f, m.dim, t) for t in range(m.dim)]
                for avec in avecs:
                    mat = m.matrix_of(avec)
                    assert [mat.column(t) for t in range(m.dim)] == \
                        _module_products(m, [avec], units), name
            assert top_module(a).dim == matrix_top.dim
            assert _module_products(top_module(a), avecs, units) == \
                _module_products(matrix_top, avecs, units), name


def test_coefficient_vectors_of_the_wrong_length_are_refused():
    """Coefficient vectors of the wrong length, and int rows with an index
    outside [0, n), the sparse form of a wrong length: as a factor of the
    algebra's, a ModuleRep's or the top's `int_products`, on either side."""
    f = QQ
    a = chain_algebra(f)
    m = regular_module(a)
    e0 = ({0: 1}, 1)
    for avec in ([f.one], a.unit + [f.zero]):
        with pytest.raises(ValueError):
            m.matrix_of(avec)

    def out_of_range(n):
        return ({n: 1}, 1), ({-1: 1}, 1), ({0: 1, n + 5: 2}, 3)

    for module in (a, m, top_module(a)):
        for bad in out_of_range(a.dim):
            with pytest.raises(ValueError):
                module.int_products([bad], [e0])
        for bad in out_of_range(module.dim):
            with pytest.raises(ValueError):
                module.int_products([e0], [bad])


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
    for action in (m.action[:-1], m.action[:-1] + [Matrix.identity(f, 1)]):
        with pytest.raises(AlgebraError, match="needs"):
            ModuleRep(a, m.dim, action).validate()


def test_submodule_and_quotient_split_dimensions():
    a = group_algebra(cyclic_group(2), Field(2))
    m = regular_module(a)
    rad = field_vectors(a, radical(a))
    sub, incl = submodule(m, rad)
    quo, proj = quotient_module(m, rad)
    sub.validate()
    quo.validate()
    assert sub.dim + quo.dim == m.dim
    assert incl.cols == sub.dim and proj.rows == quo.dim


def _inverse_projection(f, n, vectors):
    """The projection onto k^n / span(vectors) as the last rows of the
    inverse of the adapted basis [rref basis of the span | complement e_i]."""
    sub = _span(f, n, vectors)
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
        rad = field_vectors(a, radical(a))
        for vectors in (rad, [], whole, [a.unit]):
            quo, proj = quotient_module(m, vectors)
            assert (proj.rows, proj.cols) == (quo.dim, m.dim)
            assert proj.data == _inverse_projection(f, m.dim, vectors)
            if vectors is rad:
                reps = _span(f, m.dim, vectors).complement_pivots()
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
                rows = [{j: x for j, x in enumerate(row) if x} for row in m]
                assert _p_power_trace(rows, q, p * q) == expect, (p, q, n)


def _assert_each_level_on_a_basis_and_verified_once(monkeypatch, a, rad_dim, dense):
    """The p-power trace is taken once per basis vector of the previous chain
    member, never per pair of them, by the route the table takes: through
    int matrix powers, once per trace, iff `dense`.  Each earlier level is
    ruled out by the squaring certificate, and only the radical gets the
    full check."""
    traces_at, matrix_powers, checks, certified = Counter(), [], [], []

    def counted_trace(fn):
        def counted(a, b, q):
            traces_at[q] += 1
            return fn(a, b, q)
        return counted

    def counted_matrix_power(*args):
        matrix_powers.append(args[1])
        return _p_power_trace(*args)

    def counted_check(*args):
        checks.append(args)
        return is_nilpotent_ideal(*args)

    def counted_certificate(*args):
        certified.append(has_non_nilpotent(*args))
        return certified[-1]

    is_nilpotent_ideal = algebra._is_nilpotent_ideal
    has_non_nilpotent = algebra._has_non_nilpotent
    for name in ("_power_trace", "_dense_trace"):
        monkeypatch.setattr(algebra, name, counted_trace(getattr(algebra, name)))
    monkeypatch.setattr(algebra, "_p_power_trace", counted_matrix_power)
    monkeypatch.setattr(algebra, "_is_nilpotent_ideal", counted_check)
    monkeypatch.setattr(algebra, "_has_non_nilpotent", counted_certificate)
    assert len(radical(a)) == rad_dim
    assert traces_at and all(n < a.dim for n in traces_at.values()), traces_at
    assert certified == [True] * len(traces_at) + [False]  # levels 0, p, p^2, ...
    assert len(checks) == 1
    assert Counter(matrix_powers) == (traces_at if dense else Counter())


def test_chain_evaluates_each_level_on_a_basis_and_verifies_once(monkeypatch):
    """chain_8 in char 2 runs three levels past the first, all in the
    algebra: its table is integral, and no int matrix power is taken."""
    _, a, rad_dim = _larger_char_p_algebras()[0]
    _assert_each_level_on_a_basis_and_verified_once(monkeypatch, a, rad_dim, dense=False)


def test_chain_on_a_table_in_another_basis_takes_int_matrix_powers(monkeypatch):
    """chain_6 in char 2 in a basis changed mod 2 (`rebased`) is not
    integral, so each p-power trace is an int matrix power."""
    chain_6 = poset_category(chain_poset(6))
    a, _ = rebased(algebra_from_category(presentation_of(chain_6).category, Field(2)),
                   random.Random(0))
    _assert_each_level_on_a_basis_and_verified_once(monkeypatch, a, 15, dense=True)


def _assert_trace_routes_agree(a, rng):
    """On the integral table a, the p-power trace in the algebra equals the
    one through int matrix powers mod p*q, for q = 1, p, p^2, on the basis
    elements, the radical basis and random int rows, some not reduced mod p.
    Returns the number of vectors compared."""
    f, d = a.field, a.dim
    p = f.characteristic
    assert not algebra._associators(a)
    vectors = unit_rows(d) + radical(a)
    vectors += [({i: x for i in range(d) if (x := rng.randrange(3 * p))}, 1) for _ in range(3)]
    for q in (1, p, p * p):
        for b in vectors:
            assert algebra._power_trace(a, b, q) == algebra._dense_trace(a, b, q), (p, q, b)
    return len(vectors)


def _assert_rebased_radical_maps_back(a, rng):
    """The radical of a in a basis changed mod p (`rebased`), carried back
    to the basis of a, is the radical of a.  Returns whether the changed
    table is not associative over Z, so that it takes the dense route."""
    f, d = a.field, a.dim
    b, rows = rebased(a, rng)
    back = [[sum(v[i] * rows[i][k] for i in range(d)) % f.characteristic for k in range(d)]
            for v in field_vectors(b, radical(b.validate()))]
    assert _span(f, d, back).basis == field_vectors(a, radical(a))
    return bool(algebra._associators(b))


def _char_p_algebras(items):
    return [algebra_from_category(presentation_of(c).category, Field(p))
            for _, c in items for p in (2, 3, 5)]


def test_trace_routes_agree_and_a_basis_change_keeps_the_radical(corpus_items):
    """On corpus(0) in chars 2/3/5 and on F2[Z4], F2[S3] and F3[S3], both
    routes to the p-power traces agree, and the radical of each algebra in a
    random basis over F_p maps back to its radical; most of those tables are
    not integral, so the dense route is tried end to end."""
    rng = random.Random(18)
    algebras = _char_p_algebras(corpus_items) + [
        group_algebra(cyclic_group(4), Field(2)),
        *(group_algebra(symmetric_group_3(), Field(p)) for p in (2, 3))]
    assert sum(_assert_trace_routes_agree(a, rng) for a in algebras) > 1000
    non_integral = [_assert_rebased_radical_maps_back(a, rng) for a in algebras]
    assert sum(non_integral) > 3 * len(non_integral) // 4, Counter(non_integral)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_trace_routes_and_basis_changes_on_more_corpus_seeds(seed):
    rng = random.Random(seed)
    for a in _char_p_algebras(corpus(seed)):
        _assert_trace_routes_agree(a, rng)
        _assert_rebased_radical_maps_back(a, rng)


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


def _divisor_scan_roots(poly):
    """The rational roots of an int polynomial with nonzero constant term,
    by trying every +-p/q with p | a_0 and q | a_n."""
    def divisors(n):
        n = abs(n)
        return {e for d in range(1, isqrt(n) + 1) if n % d == 0 for e in (d, n // d)}

    return sorted({r for p in divisors(poly[0]) for q in divisors(poly[-1])
                   for r in (Fraction(p, q), Fraction(-p, q))
                   if sum(c * r ** i for i, c in enumerate(poly)) == 0})


def test_rational_roots_match_a_divisor_scan():
    rng = random.Random(11)
    for _ in range(300):
        # products of random rational linear factors, with repeats, and a cofactor
        poly = [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 2))] + \
            [rng.randint(1, 5)]
        for _ in range(rng.randint(0, 4)):
            r = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))
            poly = algebra._poly_mul(QQ, [Fraction(c) for c in poly], [-r, Fraction(1)])
            poly = _ints(poly)
        zeros = rng.randint(0, 2)
        expect = _divisor_scan_roots(poly) + ([Fraction(0)] if zeros else [])
        got = _rational_roots([Fraction(c) for c in [0] * zeros + poly])
        assert got == sorted(expect), poly


def test_rational_roots_of_huge_constants():
    a = 10 ** 20 + 39
    for c, roots in ((10 ** 16 + 61, []), (a * a, [-a, a]),
                     (Fraction(9, 4 * a * a), [Fraction(-3, 2 * a), Fraction(3, 2 * a)])):
        assert _rational_roots([-Fraction(c), Fraction(0), Fraction(1)]) == roots


def _squarefree_by_euclid(c):
    """c / gcd(c, c') by Euclid's algorithm over Fractions: the reference for
    `_squarefree_ints`, with int coefficients over one denominator."""
    poly = [Fraction(x) for x in c]
    g, rem = poly, [i * x for i, x in enumerate(poly)][1:]
    while rem:
        g, rem = rem, algebra._poly_divmod(QQ, g, rem)[1]
    return _ints(algebra._poly_divmod(QQ, poly, g)[0])


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 6), st.integers(1, 3)), max_size=4),
       st.lists(st.integers(-20, 20), min_size=1, max_size=4).filter(any), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_squarefree_part_on_ints_is_the_euclid_one(factors, cofactor, zeros):
    """On products of rational linear factors with multiplicities, a random
    cofactor and a power of x: the squarefree part taken on ints is the one
    Euclid's algorithm takes over Fractions, up to a scalar, primitive with
    a positive leading coefficient; and `_rational_roots` finds the same
    roots with either."""
    poly = [0] * zeros + cofactor
    for num, den, mult in factors:
        for _ in range(mult):
            poly = _ints(algebra._poly_mul(QQ, [Fraction(x) for x in poly],
                                           [Fraction(-num, den), Fraction(1)]))
    poly = algebra._poly_normalize(QQ, poly)
    if len(poly) < 2:
        return
    got, expected = _squarefree_ints(poly), _squarefree_by_euclid(poly)
    assert len(got) == len(expected) and got[-1] > 0 and gcd(*got) == 1
    assert all(x * expected[-1] == y * got[-1] for x, y in zip(got, expected))
    roots = _rational_roots([Fraction(x) for x in poly])
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(algebra, "_squarefree_ints", _squarefree_by_euclid)
        assert _rational_roots([Fraction(x) for x in poly]) == roots
