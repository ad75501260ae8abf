import ast
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from modules import combination

from eicat.linalg import (
    PRIME_BOUND,
    QQ,
    Field,
    Matrix,
    QuotientSpace,
    Subspace,
    _is_prime,
    int_kernel,
)

FIELDS = [Field(0), Field(2), Field(3), Field(5)]


def field_and_matrix(max_dim=5):
    return st.sampled_from(FIELDS).flatmap(
        lambda f: st.tuples(
            st.just(f),
            st.integers(1, max_dim).flatmap(
                lambda r: st.integers(1, max_dim).flatmap(
                    lambda c: st.lists(
                        st.lists(st.integers(-4, 4), min_size=c, max_size=c),
                        min_size=r, max_size=r)))))


def test_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(6)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(10 ** 4) if _is_prime(n)] == [n for n in range(10 ** 4) if trial(n)]
    # strong pseudoprimes to the first few prime bases
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)


def test_field_accepts_large_primes_and_refuses_above_the_bound():
    assert Field(2 ** 61 - 1).of(-1) == 2 ** 61 - 2
    assert Field(2 ** 31 - 1).characteristic == 2 ** 31 - 1
    with pytest.raises(ValueError):
        Field((2 ** 31 - 1) * (2 ** 19 - 1))
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        Field((2 ** 31 - 1) * (2 ** 61 - 1))


def test_field_of_keeps_canonical_scalars_and_rejects_floats_and_bools():
    half = Fraction(1, 2)
    assert QQ.of(half) is half
    assert Field(3).of(7) == 1
    for f in (QQ, Field(3)):
        for bad in (0.5, 1.0, True, False):
            with pytest.raises(TypeError):
                f.of(bad)
    with pytest.raises(TypeError):
        Matrix(QQ, [[1, 0.5]])


def test_field_arithmetic_mod_p():
    f = Field(5)
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.mul(f.inv(3), 3) == 1
    assert f.of(Fraction(1, 2)) == 3
    assert not f.invertible(10)
    assert f.invertible(7)


def test_inverse_of_zero_is_a_zero_division_in_every_characteristic():
    for f in FIELDS:
        assert f.mul(f.inv(f.of(-1)), f.of(-1)) == f.one
        for zero in {0, f.characteristic}:  # p itself too, not reduced first
            with pytest.raises(ZeroDivisionError):
                f.inv(zero)


def test_field_char_zero_is_exact():
    assert QQ.of(2) == Fraction(2)
    assert QQ.inv(Fraction(3, 7)) == Fraction(7, 3)
    assert QQ.invertible(-3)
    assert not QQ.invertible(0)


@given(field_and_matrix())
@settings(max_examples=60, deadline=None)
def test_rref_is_idempotent_and_rank_consistent(fm):
    f, data = fm
    m = Matrix(f, data)
    r, rank, pivots = m.rref()
    r2, rank2, pivots2 = r.rref()
    assert r.data == r2.data
    assert rank == rank2 == len(pivots)
    assert pivots == pivots2


@given(field_and_matrix())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_are_annihilated(fm):
    f, data = fm
    m = Matrix(f, data)
    ker = m.kernel_basis()
    assert len(ker) == m.cols - m.rank()
    for v in ker:
        assert all(x == 0 for x in m.mul_vec(v))
    # the same kernel from the int rows of the columns, zero rows skipped
    columns = [f.to_ints(m.column(j)) for j in range(m.cols)]
    assert [f.from_ints(row, m.cols) for row in int_kernel(f, columns)] == ker


def test_matrix_multiplication_shapes_and_identity():
    f = Field(2)
    a = Matrix(f, [[1, 1, 0], [0, 1, 1]])
    assert (Matrix.identity(f, 2) * a).data == a.data
    assert (a * Matrix.identity(f, 3)).data == a.data
    with pytest.raises(ValueError):
        a * a


def test_from_columns_preserves_width_with_zero_rows():
    f = Field(2)
    m = Matrix.from_columns(f, [[], [], []])
    assert (m.rows, m.cols) == (0, 3)
    tall = Matrix.zeros(f, 0, 3) * Matrix.zeros(f, 3, 2)
    assert (tall.rows, tall.cols) == (0, 2)
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        m = Matrix.from_entries(f, rows, cols, [])
        assert (m.rows, m.cols) == (rows, cols) and m == Matrix.zeros(f, rows, cols)


@pytest.mark.parametrize("f", [QQ, Field(3)])
def test_from_entries_adds_repeated_positions(f):
    half = f.of(Fraction(1, 2))
    m = Matrix.from_entries(f, 2, 3, [(0, 1, half), (1, 2, f.one), (0, 1, f.one),
                                      (1, 0, f.of(2)), (1, 0, f.of(-2)), (0, 1, half)])
    assert m == Matrix(f, [[0, 2, 0], [0, 0, 1]])
    assert m.mul_vec([f.one] * 3) == [f.of(2), f.one]


def test_subspace_membership_and_coords():
    f = QQ
    s = Subspace(f, 3, [({0: 1, 2: 1}, 1), ({1: 1, 2: 1}, 1)])
    assert s.dim == 2
    assert s.int_contains(({0: 1, 1: 1, 2: 2}, 1))
    assert not s.int_contains(({2: 1}, 1))
    co = s.int_coords(({0: 2, 1: 3, 2: 5}, 1))
    assert f.from_ints(s.int_from_coords(co), 3) == [Fraction(2), Fraction(3), Fraction(5)]


def test_quotient_space_project_lift_roundtrip():
    f = Field(3)
    q = QuotientSpace(f, 3, [({0: 1, 1: 1}, 1)])
    assert q.dim == 2
    for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 1, 1]):
        c = q.int_project(f.to_ints(v))
        # lift picks a representative of the same class
        diff = [f.sub(a, b) for a, b in zip(f.from_ints(q.int_lift(c), 3), v)]
        assert q.sub.int_contains(f.to_ints(diff))
    assert q.int_project(({0: 1, 1: 1}, 1)) == ({}, 1)


def _dense_mul_vec(f, m, v):
    """Reference product: the schoolbook row-by-column sum."""
    out = []
    for row in m.data:
        s = f.zero
        for a, x in zip(row, v):
            s = f.add(s, f.mul(a, x))
        out.append(s)
    return out


def _assert_canonical(f, vec):
    p = f.characteristic
    if p:
        assert all(type(x) is int and 0 <= x < p for x in vec)
    else:
        assert all(type(x) is Fraction for x in vec)


@given(st.sampled_from([QQ, Field(2), Field(3)]), st.integers(0, 6), st.integers(0, 6),
       st.data())
@settings(max_examples=120, deadline=None)
def test_mul_vec_matches_dense_reference(f, rows, cols, data):
    scalar = st.integers(-4, 4)
    if f.characteristic == 0:
        scalar |= st.fractions(min_value=-3, max_value=3, max_denominator=6)

    def vector(n):
        return [f.of(x) for x in data.draw(st.lists(scalar, min_size=n, max_size=n))]

    m = Matrix.zeros(f, rows, cols)
    m.data = [vector(cols) for _ in range(rows)]
    for i in data.draw(st.sets(st.integers(0, rows - 1))) if rows else ():
        m.data[i] = [f.zero] * cols  # zero rows
    for j in data.draw(st.sets(st.integers(0, cols - 1))) if cols else ():
        for row in m.data:
            row[j] = f.zero  # zero columns
    for _ in range(3):
        v = vector(cols)
        got = m.mul_vec(v)
        assert got == _dense_mul_vec(f, m, v)
        _assert_canonical(f, got)


@given(st.sampled_from([QQ, Field(2), Field(3), Field(5)]), st.integers(0, 4),
       st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=120, deadline=None)
def test_combination_matches_dense_sum(f, nterms, rows, cols, data):
    scalar = st.integers(-4, 4)
    if f.characteristic == 0:
        scalar |= st.fractions(min_value=-3, max_value=3, max_denominator=6)

    def draw(n):
        return [f.of(x) for x in data.draw(st.lists(scalar, min_size=n, max_size=n))]

    terms = [(c, Matrix(f, [draw(cols) for _ in range(rows)]) if rows else
              Matrix.zeros(f, 0, cols)) for c in draw(nterms)]
    dense = [[f.zero] * cols for _ in range(rows)]
    for c, m in terms:
        dense = [[f.add(x, f.mul(c, y)) for x, y in zip(row, mrow)]
                 for row, mrow in zip(dense, m.data)]
    got = combination(f, terms, rows, cols)
    assert (got.rows, got.cols) == (rows, cols)
    assert got.data == dense
    for row in got.data:
        _assert_canonical(f, row)


def test_mul_vec_empty_shapes():
    for f in (QQ, Field(2), Field(3)):
        assert Matrix.zeros(f, 0, 4).mul_vec([f.one] * 4) == []
        assert Matrix.zeros(f, 3, 0).mul_vec([]) == [f.zero] * 3
        assert Matrix.from_columns(f, [[], []]).mul_vec([f.one, f.one]) == []
        with pytest.raises(ValueError):
            Matrix.zeros(f, 2, 2).mul_vec([f.one])


def test_mul_vec_on_a_copy_of_a_multiplied_matrix():
    for f in (QQ, Field(2), Field(3)):
        m = Matrix(f, [[1, 0, 2], [0, 0, 1], [1, 1, 0]])
        v = [f.one, f.of(2), f.zero]
        before = m.mul_vec(v)
        c = m.copy()
        c.data[1][0] = f.one  # a copy starts without the cached view
        assert c.mul_vec(v) == _dense_mul_vec(f, c, v) != before
        assert m.mul_vec(v) == before == _dense_mul_vec(f, m, v)


def test_subspace_and_quotient_refuse_vectors_of_the_wrong_length():
    """An index outside [0, n) is the sparse form of a wrong length, and is
    refused wherever an int row comes in."""
    s = Subspace(QQ, 3, [({0: 1}, 1)])
    q = QuotientSpace(QQ, 3, [({0: 1}, 1)])
    for bad in ({0: 1, 3: 5}, {-1: 1}, {7: 2}):
        with pytest.raises(ValueError):
            s.int_coords((bad, 1))
        with pytest.raises(ValueError):
            s.int_contains((bad, 1))
        with pytest.raises(ValueError):
            q.int_project((bad, 1))
        with pytest.raises(ValueError):
            s.int_extend([(bad, 1)])
        with pytest.raises(ValueError):
            Subspace(QQ, 3, [({1: 1}, 1), (bad, 1)])
        with pytest.raises(ValueError):
            Matrix.zeros(QQ, 2, 3).int_mul_vec((bad, 1))
    for bad in ({1: 2}, {-1: 1}):
        with pytest.raises(ValueError):
            s.int_from_coords((bad, 1))
    for bad in ({2: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            q.int_lift((bad, 1))
    assert QQ.from_ints(s.int_coords(({0: 2}, 1)), 1) == [2]
    assert QQ.from_ints(q.int_project(({0: 1, 1: 2, 2: 3}, 1)), 2) == [2, 3]


def _unreduced(f, v, k):
    """An int row of the vector v not in lowest terms, with an entry at every
    index, its zeros too: scaled by k in characteristic 0, shifted by k * p
    in characteristic p."""
    w, den = f.to_ints(v)
    p = f.characteristic
    return ({i: w.get(i, 0) + k * p for i in range(len(v))}, 1) if p else \
        ({i: w.get(i, 0) * k for i in range(len(v))}, den * k)


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=60, deadline=None)
def test_subspace_coords_project_and_from_coords_agree(f, data):
    """`int_coords`, `int_contains`, `int_from_coords`, `int_project` and
    `int_lift` agree, on int rows not in lowest terms too."""
    n = data.draw(st.integers(0, 5))
    entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    k = data.draw(st.integers(1, 3))
    s = Subspace(f, n, [_unreduced(f, [f.of(x) for x in v], k)
                        for v in data.draw(st.lists(entries, max_size=4))])
    q = QuotientSpace(f, n, s.int_basis)
    v = [f.of(x) for x in data.draw(entries)]
    row = _unreduced(f, v, k)
    co = s.int_coords(row)
    assert s.int_contains(row) == (co is not None) == (not q.int_project(row)[0])
    if co is not None:
        assert f.from_ints(s.int_from_coords(co), n) == v
    # v minus the lift of its class lies in the subspace
    lift = f.from_ints(q.int_lift(q.int_project(row)), n)
    assert s.int_contains(f.to_ints([f.sub(x, y) for x, y in zip(v, lift)]))


@given(st.sampled_from([QQ, Field(2), Field(3)]), st.data())
@settings(max_examples=80, deadline=None)
def test_int_extend_equals_the_subspace_of_the_joined_rows(f, data):
    """`int_extend` gives the Subspace of the old int basis and the new int
    rows: the same rref basis, pivots and int echelon, and the same
    `int_contains`, `int_coords` and `int_from_coords`; members of the span,
    zero rows and an empty extension included, and the old subspace left as
    it was."""
    n = data.draw(st.integers(0, 6))
    vector = st.lists(_scalars(f), min_size=n, max_size=n).map(lambda v: [f.of(x) for x in v])
    s = Subspace(f, n, [f.to_ints(v) for v in data.draw(st.lists(vector, max_size=4))])
    before = (s.basis, s.pivots, [(dict(w), den) for w, den in s.int_basis])
    coords = st.lists(_scalars(f), min_size=s.dim, max_size=s.dim).map(
        lambda c: [f.of(x) for x in c])
    member = f.from_ints(s.int_from_coords(f.to_ints(data.draw(coords))), n)
    new = data.draw(st.permutations(data.draw(st.lists(vector, max_size=3)) + [member, [f.zero] * n]))
    new = new[:data.draw(st.integers(0, len(new)))]
    rows = [f.to_ints(v) for v in new]
    ext, ref = s.int_extend(rows), Subspace(f, n, s.int_basis + rows)
    assert (ext.basis, ext.pivots, ext.int_basis) == (ref.basis, ref.pivots, ref.int_basis)
    assert ext.basis == Subspace(f, n, [f.to_ints(v) for v in s.basis + new]).basis
    assert (s.basis, s.pivots, s.int_basis) == before
    for row in map(f.to_ints, (data.draw(vector), member, *new)):
        assert ext.int_contains(row) == ref.int_contains(row)
        assert ext.int_coords(row) == ref.int_coords(row)
    co = [f.of(x) for x in data.draw(st.lists(_scalars(f), min_size=ext.dim, max_size=ext.dim))]
    assert ext.int_from_coords(f.to_ints(co)) == ref.int_from_coords(f.to_ints(co))
    with pytest.raises(ValueError):
        s.int_extend([({n: 1}, 1)])


# -- the sparse kernel against a dense reference --------------------------------


def _dense_rref(f, vectors, n):
    """Reference: Gauss-Jordan on canonical vectors of length n, by field
    operations only; (the nonzero rref rows, their pivots)."""
    rows = [list(v) for v in vectors]
    pivots = []
    for c in range(n):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for j, row in enumerate(rows):
            if j != r and row[c] != 0:
                rows[j] = [f.sub(x, f.mul(row[c], y)) for x, y in zip(row, rows[r])]
        pivots.append(c)
    return [[f.of(x) for x in row] for row in rows[:len(pivots)]], pivots


def _dense_kernel(f, grid, ncols):
    """Reference null space of the rows `grid`: per non-pivot column c of its
    rref, 1 at c and minus the rref entries at the pivots."""
    rref, pivots = _dense_rref(f, grid, ncols)
    out = []
    for c in range(ncols):
        if c not in pivots:
            v = [f.zero] * ncols
            v[c] = f.one
            for row, pc in zip(rref, pivots):
                v[pc] = f.neg(row[c])
            out.append(v)
    return out


def _assert_int_row(f, row, n):
    """Nonzero entries only, at indices in [0, n); reduced into [1, p) over
    1 in characteristic p; over a positive denominator in characteristic 0."""
    w, den = row
    p = f.characteristic
    assert all(type(i) is int and 0 <= i < n for i in w), row
    assert all(type(x) is int and (0 < x < p if p else x) for x in w.values()), row
    assert den == 1 if p else (type(den) is int and den > 0), row


def _vectors(f, n, data, max_size=4):
    """Canonical vectors of length n: random ones, a zero one, and a repeat."""
    vector = st.lists(_scalars(f), min_size=n, max_size=n).map(lambda v: [f.of(x) for x in v])
    vectors = data.draw(st.lists(vector, max_size=max_size))
    vectors += data.draw(st.sampled_from([[], [[f.zero] * n], vectors[:1]]))
    return data.draw(st.permutations(vectors))


def test_entries_of_zero_or_not_reduced_mod_p_are_taken_as_their_values():
    """An int row may hold an entry of 0, or in characteristic p one outside
    [1, p): each entry point takes it as its value, as a dense row was.

    A row that meets no pivot of the echelon passes through the reduction
    unchanged, so its values are taken where it does: with a 0 (or, over
    F_3, a 3 or a 6) at its least index it is still the row of its value,
    in `Subspace`, `int_extend`, `int_contains`, `int_coords` and
    `QuotientSpace.int_project`, over F_3 and Q.  Every row is still checked
    for its indices, zero values or not, and a generator of rows is read
    once."""
    f = Field(3)
    assert Subspace(f, 2, [({0: 1, 1: 3}, 1)]).basis == [[1, 0]]
    assert Subspace(f, 2, [({0: 4, 1: -1}, 1)]).int_basis == [({0: 1, 1: 2}, 1)]
    assert Subspace(f, 1, [({0: 3}, 1)]).dim == 0
    assert Subspace(f, 1).int_contains(({0: 3}, 1))
    s = Subspace(f, 2, [({1: 1}, 1)])
    assert s.int_coords(({1: 5}, 1)) == ({0: 2}, 1)
    assert s.int_extend([({0: 6}, 1), ({0: 0}, 1)]).dim == 1
    assert s.int_from_coords(({0: 4}, 1)) == ({1: 1}, 1)
    q = QuotientSpace(f, 2, [({1: 4}, 1)])
    assert q.int_project(({0: 5, 1: 7}, 1)) == ({0: 2}, 1)
    assert q.int_lift(({0: 5}, 1)) == ({0: 2}, 1)
    assert q.int_lift(({0: 3}, 1)) == ({}, 1)
    assert f.from_ints(({0: 4, 1: 3}, 1), 2) == [1, 0]
    assert Matrix.from_int_columns(f, [({0: 4, 1: 3}, 1)], 2).data == [[1], [0]]
    assert int_kernel(f, [({0: 3}, 1), ({0: 5}, 1)]) == [({0: 1}, 1)]
    assert Matrix.from_entries(f, 1, 1, [(0, 0, 1)]).int_mul_vec(({0: 5}, 1)) == ({0: 2}, 1)
    assert Subspace(QQ, 2, [({0: 0, 1: -2}, 1)]).int_basis == [({1: 1}, 1)]
    assert QQ.from_ints(({0: 0, 1: 3}, 2), 2) == [0, Fraction(3, 2)]
    assert int_kernel(QQ, [({0: 0}, 1)]) == [({0: 1}, 1)]
    for f in (Field(3), QQ):
        zero = 3 if f.characteristic else 0
        assert Subspace(f, 3, [({0: zero, 2: 1}, 1)]).int_basis == [({2: 1}, 1)]
        assert Subspace(f, 3, [({0: zero}, 1), ({1: zero}, 2)]).dim == 0
        s = Subspace(f, 3, [({1: 1}, 1)])
        assert s.int_extend([({0: 2 * zero, 2: 1}, 1)]).int_basis == [({1: 1}, 1), ({2: 1}, 1)]
        assert s.int_extend([({0: zero}, 1)]).pivots == [1]
        assert s.int_contains(({0: zero, 2: 0}, 1))
        assert not s.int_contains(({0: zero, 2: 1}, 1))
        assert s.int_coords(({0: zero}, 1)) == ({}, 1)
        assert s.int_coords(({0: zero, 2: 1}, 1)) is None
        both = Subspace(f, 3, [({0: 1}, 1), ({1: 1}, 1)])
        assert both.int_coords(({0: zero, 1: 1}, 1)) == ({1: 1}, 1)
        q = QuotientSpace(f, 3, [({1: 1}, 1)])
        assert q.int_project(({0: zero, 2: 1}, 1)) == ({1: 1}, 1)
        assert q.int_project(({0: zero}, 1)) == ({}, 1)
        if f.characteristic:
            assert Subspace(f, 2, [({0: 4, 1: 5}, 1)]).int_basis == [({0: 1, 1: 2}, 1)]
            assert both.int_coords(({0: 4, 1: 6}, 1)) == ({0: 1}, 1)
            assert q.int_project(({0: 7}, 1)) == ({0: 1}, 1)
        rows = [({0: 1}, 1), ({1: 2}, 1)]
        assert Subspace(f, 3, (row for row in rows)).pivots == [0, 1]
        assert s.int_extend(row for row in rows[:1]).pivots == [0, 1]
        for bad in (lambda: Subspace(f, 2, [({0: zero, 2: 0}, 1)]),
                    lambda: s.int_extend([({-1: 0}, 1)]),
                    lambda: s.int_contains(({3: zero}, 1)),
                    lambda: s.int_coords(({0: 0, 5: 1}, 1)),
                    lambda: q.int_project(({3: 0}, 1)),
                    lambda: q.int_lift(({2: zero}, 1)),
                    lambda: f.from_ints(({2: 0}, 1), 2)):
            with pytest.raises(ValueError, match="index outside"):
                bad()


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_kernel_matches_the_dense_reference(f, data):
    """`Subspace` pivots and `int_basis`; `int_contains`, `int_coords`,
    `int_from_coords` and `int_extend`; `QuotientSpace.int_project` and
    `int_lift`: each against Gauss-Jordan on canonical vectors, over QQ
    (with denominators, on rows not in lowest terms) and F2/F3/F5, with
    zero, repeated and no rows."""
    n = data.draw(st.integers(0, 6))
    k = data.draw(st.integers(1, 3))
    vectors = _vectors(f, n, data)
    s = Subspace(f, n, [_unreduced(f, v, k) for v in vectors])
    rref, pivots = _dense_rref(f, vectors, n)
    assert (s.pivots, s.basis) == (pivots, rref)
    p = f.characteristic
    for (w, den), c, row in zip(s.int_basis, pivots, rref):
        _assert_int_row(f, (w, den), n)
        assert min(w) == c and w[c] == den and f.from_ints((w, den), n) == row
        if p:
            assert den == 1
        else:
            assert gcd(*w.values()) == 1
    # membership, coordinates and the member with given coordinates
    for v in _vectors(f, n, data, 2) + [row for row in rref[:1]]:
        row = _unreduced(f, v, k)
        inside = len(_dense_rref(f, vectors + [v], n)[1]) == len(pivots)
        assert s.int_contains(row) == inside
        co = s.int_coords(row)
        assert (co is not None) == inside
        if inside:
            _assert_int_row(f, co, s.dim)
            assert f.from_ints(co, s.dim) == [v[c] for c in pivots]
            got = s.int_from_coords(co)
            _assert_int_row(f, got, n)
            assert f.from_ints(got, n) == v
    # the quotient: the class is the residual at the representatives, and
    # the lift puts coordinates at them
    q = QuotientSpace(f, n, [_unreduced(f, v, k) for v in vectors])
    assert q.reps == [i for i in range(n) if i not in pivots]
    for v in _vectors(f, n, data, 2):
        residual = v
        for row, c in zip(rref, pivots):
            residual = [f.sub(x, f.mul(v[c], y)) for x, y in zip(residual, row)]
        got = q.int_project(_unreduced(f, v, k))
        _assert_int_row(f, got, q.dim)
        assert f.from_ints(got, q.dim) == [residual[i] for i in q.reps]
        lift = q.int_lift(got)
        _assert_int_row(f, lift, n)
        assert f.from_ints(lift, n) == [residual[i] if i in q.reps else f.zero for i in range(n)]
    # extending by more rows is the span of all of them
    more = _vectors(f, n, data, 3)
    ext = s.int_extend([_unreduced(f, v, k) for v in more])
    assert (ext.basis, ext.pivots) == _dense_rref(f, vectors + more, n)
    assert ext.int_basis == Subspace(f, n, s.int_basis + list(map(f.to_ints, more))).int_basis
    assert (s.pivots, s.basis) == (pivots, rref)


@given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(0, 5), st.data())
@settings(max_examples=120, deadline=None)
def test_int_kernel_and_int_mul_vec_match_the_dense_reference(f, rows, cols, data):
    """`int_kernel` of sparse columns and `Matrix.int_mul_vec` of a matrix
    of `from_int_columns`, against the null space of the dense rref and the
    schoolbook product; the matrix's canonical entries, made on first read,
    are those of its columns."""
    columns = _vectors(f, rows, data, cols) if rows else [[] for _ in range(cols)]
    grid = [[column[i] for column in columns] for i in range(rows)]
    ints = [_unreduced(f, column, data.draw(st.integers(1, 3))) for column in columns]
    kernel = int_kernel(f, ints)
    for row in kernel:
        _assert_int_row(f, row, len(columns))
    assert [f.from_ints(row, len(columns)) for row in kernel] == \
        _dense_kernel(f, grid, len(columns))
    m = Matrix.from_int_columns(f, ints, rows)
    assert (m.rows, m.cols) == (rows, len(columns))
    for v in _vectors(f, len(columns), data, 2):
        got = m.int_mul_vec(_unreduced(f, v, 2))
        _assert_int_row(f, got, rows)
        assert f.from_ints(got, rows) == _dense_mul_vec(f, Matrix(f, grid) if rows else m, v)
    assert m.data == grid and m == Matrix.from_columns(f, columns, rows=rows)
    for row in m.data:
        _assert_canonical(f, row)


# -- cross-check against sympy's DomainMatrix ---------------------------------


def _scalars(f):
    if f.characteristic:
        return st.integers(0, f.characteristic - 1)
    return st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=5)


@given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(0, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_rref_rank_and_kernel_match_sympy(f, rows, cols, data):
    sympy_matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import GF
    from sympy import QQ as SQQ
    p = f.characteristic
    grid = [[f.of(x) for x in data.draw(st.lists(_scalars(f), min_size=cols, max_size=cols))]
            for _ in range(rows)]
    for i in data.draw(st.sets(st.integers(0, rows - 1))) if rows else ():
        grid[i] = [f.zero] * cols  # zero rows
    m = Matrix(f, grid) if rows else Matrix.zeros(f, 0, cols)
    dom = GF(p) if p else SQQ
    dm = sympy_matrices.DomainMatrix(
        [[dom(x) if p else dom(x.numerator, x.denominator) for x in row] for row in grid],
        (rows, cols), dom)

    def theirs(x):
        return int(x) % p if p else Fraction(int(x.numerator), int(x.denominator))

    R, rank, pivots = m.rref()
    sR, spivots = dm.rref()
    assert (R.rows, R.cols) == (rows, cols)
    assert R.data == [[theirs(x) for x in row] for row in sR.to_list()]
    assert pivots == list(spivots)
    assert rank == m.rank() == dm.rank()
    assert len(m.kernel_basis()) == dm.nullspace().shape[0] == cols - rank
    # the same from sparse input: the Subspace of the rows as int rows, and
    # the matrix of the columns as int rows
    s = Subspace(f, cols, [f.to_ints(row) for row in grid])
    assert s.pivots == list(spivots)
    assert s.basis == [[theirs(x) for x in row] for row in sR.to_list()[:rank]]
    columns = [f.to_ints(m.column(j)) for j in range(cols)]
    sparse = Matrix.from_int_columns(f, columns, rows)
    assert sparse.rref()[0].data == R.data and sparse.rank() == rank
    assert len(int_kernel(f, columns)) == dm.nullspace().shape[0]


def _assigned(targets):
    """The targets of an assignment, tuples and starred names unpacked."""
    for t in targets:
        if isinstance(t, (ast.Tuple, ast.List)):
            yield from _assigned(t.elts)
        elif isinstance(t, ast.Starred):
            yield from _assigned([t.value])
        else:
            yield t


def test_only_linalg_writes_matrix_data():
    """A matrix's cached sparse view is never invalidated: outside linalg.py,
    no source file assigns into a subscript of a `.data` attribute."""
    src = Path(__file__).resolve().parent.parent / "src" / "eicat"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for t in _assigned(targets):
                while isinstance(t, ast.Subscript):
                    t = t.value
                    if isinstance(t, ast.Attribute) and t.attr == "data":
                        offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders
