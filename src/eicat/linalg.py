"""Exact linear algebra over Q and the prime fields F_p.

Vectors have one form, the sparse int row (w, den) of `Field.to_ints`: w is
a dict {index: int} of the nonzero entries only and v = w / den, not
necessarily in lowest terms; in characteristic p, den is 1 and every entry is
reduced into [1, p).  In a space of dimension n an index outside [0, n) is
refused with a ValueError, as a wrong length was; every row coming in is
checked so.  A row coming in may also hold an entry of 0, or in
characteristic p one outside [1, p): it is taken at its value, as a dense
row was, wherever such a row could come out as it went in (`_held`): where
`_reduce` passes it through unchanged, in `_echelon` and
`Subspace._residual`, and where it is handed back as it came, by
`Subspace.int_coords`, `QuotientSpace.int_lift`, `Field.from_ints` and the
int view of `Matrix.from_int_columns`.  Every other row goes through
`_combine` or a product, which reduce what they make.  Rows are never
written in place, so echelons and spans share them.  `Subspace`,
`QuotientSpace`, `Matrix.int_mul_vec`, `Matrix.from_int_columns`,
`Matrix.null_space` and `int_kernel` take and give int rows.  Canonical
scalars, `fractions.Fraction` in characteristic 0 and ints in [0, p) in
characteristic p, appear only in
`Matrix` entries and in what is handed out: `Subspace.basis`, made canonical
by `Field.from_ints`, which needs the length n.  Everything is exact; no
floats anywhere.  `Field.of`, `Matrix(...)` and `FiniteDimAlgebra.from_json`
refuse floats and bools; everything else takes the canonical scalars they
and this module hand out.

Matrices are stored dense, row-major.  `rref`, `rank`, `kernel_basis`,
`null_space`, `int_kernel` and `Subspace` share one sparse fraction-free
Gauss-Jordan elimination (`_echelon`).  Products and eliminations work from
a column-sparse int view of the matrix (per column, the (row, value) pairs
with nonzero value, all times one scale) that is built on first use, or
taken from the ints of `from_int_columns`, whose dense entries are made only
when read, and cached on the matrix.  A `Subspace` keeps the int echelon of
its rref basis, which its methods and `QuotientSpace.int_project` share, and
`int_extend` grows it in place of a rebuild.  So neither a matrix whose view
is cached nor a `Subspace.basis` may be written in place.  A matrix is built
whole and never changed: `Matrix.from_entries` (scattered entries, repeats
adding up), `Matrix.from_columns` and `Matrix.from_int_columns` are the
constructors, and nothing outside this module writes `.data`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

# The first 13 primes.  Miller-Rabin with these bases is exact below
# PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981

# The zero and one of Q, shared (Fractions are immutable).  The zeros this
# module makes in characteristic 0 are all _ZERO, so the int conversions can
# pass over them with an identity test; any other zero still converts to 0.
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """A field given by its characteristic: 0 means Q, p means F_p."""

    characteristic: int = 0

    def __post_init__(self):
        if self.characteristic >= PRIME_BOUND:
            raise ValueError(f"characteristic must be below {PRIME_BOUND}, "
                             f"the bound of the primality test, got {self.characteristic}")
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {self.characteristic}")

    @property
    def zero(self):
        return 0 if self.characteristic else _ZERO

    @property
    def one(self):
        return 1 if self.characteristic else _ONE

    def of(self, n):
        """Canonicalize an int or Fraction into this field.  A scalar that is
        already canonical comes back as it is; anything else, floats and
        bools included, raises TypeError."""
        p = self.characteristic
        if p:
            if type(n) is int:
                return n % p
            if type(n) is Fraction:
                if n.denominator % p == 0:
                    raise ZeroDivisionError(f"denominator {n.denominator} not invertible mod {p}")
                return (n.numerator * pow(n.denominator, -1, p)) % p
        elif type(n) is Fraction:
            return n
        elif type(n) is int:
            return Fraction(n) if n else _ZERO
        raise TypeError(f"scalar must be an int or a Fraction, got {type(n).__name__} {n!r}")

    def add(self, a, b):
        p = self.characteristic
        return (a + b) % p if p else a + b

    def sub(self, a, b):
        p = self.characteristic
        return (a - b) % p if p else a - b

    def mul(self, a, b):
        p = self.characteristic
        return (a * b) % p if p else a * b

    def neg(self, a):
        p = self.characteristic
        return (-a) % p if p else -a

    def inv(self, a):
        p = self.characteristic
        if p:
            try:
                return pow(a, -1, p)
            except ValueError:  # a = 0 mod p, the only non-unit
                raise ZeroDivisionError("inverse of zero") from None
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def invertible(self, n: int) -> bool:
        """Whether the integer n is invertible in this field."""
        p = self.characteristic
        return n % p != 0 if p else n != 0

    def to_ints(self, v):
        """The int row (w, den) of the vector v: w holds its nonzero entries
        by index, in characteristic 0 as ints over den, the lcm of the
        denominators of v, in characteristic p reduced into [1, p) over 1."""
        p = self.characteristic
        if p:
            return {i: y for i, x in enumerate(v) if (y := x % p)}, 1
        den = lcm(*(x.denominator for x in v if x))
        return {i: x.numerator * (den // x.denominator) for i, x in enumerate(v) if x}, den

    def from_ints(self, row, n):
        """The canonical vector of length n with the int row `row`."""
        p = self.characteristic
        _check_row(row[0], n)
        v = [0 if p else _ZERO] * n
        for i, x in _held(p, row[0]).items():
            v[i] = x if p else Fraction(x, row[1])
        return v


QQ = Field(0)


def unit_vector(f: Field, n: int, i: int):
    """The i-th standard basis vector of f^n."""
    v = [f.zero] * n
    v[i] = f.one
    return v


def unit_rows(n: int):
    """The standard basis of k^n as int rows, in any field."""
    return [({i: 1}, 1) for i in range(n)]


def _outside(n, what):
    """The refusal of an index outside [0, n), the sparse form of a wrong length."""
    return ValueError(f"{what} with an index outside [0, {n})")


def _check_row(w, n, what="vector"):
    """Refuse (`_outside`) the entries w of an int row unless every index is
    in [0, n)."""
    if w and (min(w) < 0 or max(w) >= n):
        raise _outside(n, what)


def _check_rows(rows, n, what="vector"):
    """`_check_row` on each of the int rows `rows`."""
    for w, _ in rows:
        if w and (min(w) < 0 or max(w) >= n):
            raise _outside(n, what)


def _entries(rows, n):
    """The entries w of the int rows `rows` that are not empty, as a list
    (`rows` may be a generator), checked as `_check_row` checks them; their
    values are left for `_reduce` to take."""
    out = [w for w, _ in rows if w]
    for w in out:
        if min(w) < 0 or max(w) >= n:
            raise _outside(n, "vector")
    return out


def _held(p, w):
    """The entries w of an int row coming in, as they are held: w itself
    when its values are nonzero already (in [1, p) in characteristic p),
    else `_nonzero` of w."""
    if w:
        values = w.values()
        if not ((0 < min(values) and max(values) < p) if p else all(values)):
            return _nonzero(p, w)
    return w


def _nonzero(p, acc):
    """The entries of an int row from the int dict acc: its nonzero
    values, reduced into [1, p) in characteristic p."""
    if p:
        return {i: y for i, x in acc.items() if (y := x % p)}
    return {i: x for i, x in acc.items() if x}


def _combine(p, base, terms):
    """(r, k): r = k * base + sum x * (k / e[c]) * e over the (x, e, c) of
    `terms`, e an echelon row with pivot c, as the entries of an int row;
    k is the lcm of the e[c], so 1 in characteristic p."""
    k = 1 if p else lcm(*(e[c] for _, e, c in terms))
    acc = dict(base) if k == 1 else {j: x * k for j, x in base.items()}
    for x, e, c in terms:
        if k != 1:
            x *= k // e[c]
        for j, y in e.items():
            acc[j] = acc.get(j, 0) + x * y
    return _nonzero(p, acc), k


def _reduce(p, w, index):
    """(r, k) with r = k * w minus multiples of the rows of the echelon
    `index` {pivot: row}, zero at every pivot (`_combine`).  The rows are
    zero at each other's pivots, so the multiples are read off w itself.  A
    row that meets no pivot comes back as it is held (`_held`)."""
    if index.keys().isdisjoint(w):
        return _held(p, w), 1
    return _combine(p, w, [(-x, index[c], c) for c, x in w.items() if c in index])


def _echelon(p, rows, index):
    """Gauss-Jordan elimination, sparse: put the int dicts `rows`, with
    their values as they came in, one by one into the echelon `index`
    {pivot: row}, in place, and return it.  A row is reduced by the
    echelon (`_reduce`), which takes its values; if anything is left, its least index becomes a
    pivot, the row is normalised there and the other rows are reduced by it.
    So each row is zero at the other pivots and its own pivot is its least
    index: in characteristic p the pivot is 1, and in characteristic 0 the
    row is primitive with a positive pivot, so row / pivot is the rref row in
    lowest terms and the echelon is a function of the span."""
    for w in rows:
        w = _reduce(p, w, index)[0]
        if not w:
            continue
        c = min(w)
        a = w[c]
        if p:
            if a != 1:
                inv = pow(a, -1, p)
                w = {j: x * inv % p for j, x in w.items()}
        else:
            w = _primitive(w, a)
        for d, e in index.items():
            if c in e:
                r = _combine(p, e, [(-e[c], w, c)])[0]
                index[d] = r if p else _primitive(r, r[d])
        index[c] = w
    return index


def _primitive(w, lead):
    """The int dict w over the gcd of its entries, signed as `lead`, one of
    them: so that entry comes out positive."""
    g = gcd(*w.values())
    if lead < 0:
        g = -g
    return w if g == 1 else {j: x // g for j, x in w.items()}


class Matrix:
    """Dense matrix over a Field; row-major list-of-lists storage, plus the
    column-sparse int view the products build on first use.  A matrix of
    `from_int_columns` starts from its int view and makes `data` on first
    read."""

    __slots__ = ("field", "rows", "cols", "data", "_sparse")

    def __init__(self, field: Field, data):
        self.field = field
        self.data = [[field.of(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        self._sparse = None
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    def __getattr__(self, name):
        """`data` unset, as `from_int_columns` leaves it: the canonical
        entries of the int view, made and kept on first read."""
        if name != "data":
            raise AttributeError(name)
        f = self.field
        columns, scale = self._sparse
        data = [[f.zero] * self.cols for _ in range(self.rows)]
        for j, column in enumerate(columns):
            for i, x in column:
                data[i][j] = x if f.characteristic else Fraction(x, scale)
        self.data = data
        return data

    @classmethod
    def _of(cls, field, data, cols):
        """The matrix on `data`, rows of `cols` canonical scalars, taken as
        they are: the constructor for what this module computes."""
        m = cls.__new__(cls)
        m.field = field
        m.data = data
        m.rows = len(data)
        m.cols = cols
        m._sparse = None
        return m

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls._of(field, [[z] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls.from_entries(field, n, n, ((i, i, one) for i in range(n)))

    @classmethod
    def from_entries(cls, field, rows, cols, entries):
        """The rows x cols matrix with the canonical scalar x at (r, c) for
        each (r, c, x) of `entries`, zero elsewhere; entries at the same
        position add up."""
        z = field.zero
        data = [[z] * cols for _ in range(rows)]
        for r, c, x in entries:
            row = data[r]
            # the first write assigns: no Fraction sum with the shared zero
            row[c] = x if row[c] is z else field.add(row[c], x) or z
        return cls._of(field, data, cols)

    @classmethod
    def from_columns(cls, field, columns, rows=None):
        """The matrix with the given columns of canonical scalars; `rows` is
        the height when there are no columns."""
        if not columns:
            return cls.zeros(field, rows or 0, 0)
        return cls._of(field, [list(r) for r in zip(*columns)], len(columns))

    @classmethod
    def from_int_columns(cls, field, columns, rows):
        """The rows x len(columns) matrix whose columns are the int rows
        `columns`, held as its int view, over the lcm of their
        denominators; `data` is made on first read."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = len(columns)
        m._sparse = _int_view(field.characteristic, columns)
        return m

    def copy(self):
        return Matrix._of(self.field, [row[:] for row in self.data], self.cols)

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(tuple, self.data))))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data})"

    def __mul__(self, other):
        """self * other, column by column through `mul_vec`."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        return Matrix.from_columns(self.field, [self.mul_vec(other.column(j))
                                                for j in range(other.cols)], rows=self.rows)

    def _sparse_view(self):
        """(columns, scale): per column the (row, value) pairs with nonzero
        value, as integers value * scale; scale is 1 in characteristic p and
        the lcm of the denominators in characteristic 0."""
        if self._sparse is None:
            p = self.field.characteristic
            scale = 1 if p else lcm(*(x.denominator for row in self.data for x in row
                                      if x is not _ZERO))
            columns = [[] for _ in range(self.cols)]
            for i, row in enumerate(self.data):
                for j, a in enumerate(row):
                    if a is not _ZERO and a:
                        columns[j].append((i, a if p else a.numerator * (scale // a.denominator)))
            self._sparse = (columns, scale)
        return self._sparse

    def int_mul_vec(self, row):
        """self * v for the int row v, as an int row: touching only the
        nonzero v_j and the nonzeros of their columns."""
        w, den = row
        _check_row(w, self.cols)
        columns, scale = self._sparse_view()
        acc = {}
        for j, x in w.items():
            for i, a in columns[j]:
                acc[i] = acc.get(i, 0) + a * x
        p = self.field.characteristic
        return _nonzero(p, acc), 1 if p else den * scale

    def mul_vec(self, v):
        """self * v, on ints (`int_mul_vec`), each entry made canonical once."""
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} for {self.cols} columns")
        return self.field.from_ints(self.int_mul_vec(self.field.to_ints(v)), self.rows)

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def _int_echelon(self):
        """The echelon {pivot: row} of the rows of the int view."""
        return _echelon_columns(self.field.characteristic, self._sparse_view()[0])

    def rref(self):
        """Reduced row echelon form.  Returns (matrix, rank, pivot_columns)."""
        f = self.field
        index = self._int_echelon()
        pivots = sorted(index)
        data = [f.from_ints((index[c], index[c][c]), self.cols) for c in pivots]
        z = f.zero
        data += [[z] * self.cols for _ in range(self.rows - len(pivots))]
        return Matrix._of(f, data, self.cols), len(pivots), pivots

    def rank(self):
        return len(self._int_echelon())

    def _kernel_rows(self):
        return _kernel_of(self.field.characteristic, self._int_echelon(), self.cols)

    def kernel_basis(self):
        """Basis (list of column vectors) of the right null space."""
        return [self.field.from_ints(row, self.cols) for row in self._kernel_rows()]

    def null_space(self):
        """The right null space as a `Subspace`, from the int rows of
        `kernel_basis`."""
        return Subspace(self.field, self.cols, self._kernel_rows())


def _int_view(p, columns):
    """(columns, scale) of the matrix whose columns are the int rows
    `columns`, as `Matrix._sparse_view` gives it: per column the nonzero
    (row, value * scale), over the lcm of their denominators (1 in
    characteristic p)."""
    scale = lcm(*(den for _, den in columns))
    out = []
    for w, den in columns:
        w = _held(p, w)
        out.append(list(w.items()) if den == scale else
                   [(i, x * (scale // den)) for i, x in w.items()])
    return out, scale


def _echelon_columns(p, columns):
    """`_echelon` of the nonzero rows of the matrix whose int view has the
    columns `columns`."""
    rows = {}
    for j, column in enumerate(columns):
        for i, x in column:
            rows.setdefault(i, {})[j] = x
    return _echelon(p, [rows[i] for i in sorted(rows)], {})


def _kernel_of(p, index, ncols):
    """Int rows of the basis of the right null space of a matrix with the
    echelon `index` and ncols columns: one per non-pivot column c, with den
    at c, 0 at the other non-pivot columns and den over the lcm of the
    pivot entries."""
    den = lcm(*(e[c] for c, e in index.items()))
    out = {c: {c: den} for c in range(ncols) if c not in index}
    for pc, e in index.items():
        k = den // e[pc]
        for c, x in e.items():
            if c != pc:
                out[c][pc] = (-x) % p if p else -x * k
    return [(w, den) for w in out.values()]


def int_kernel(f: Field, columns):
    """The right null space of the matrix whose columns are the int rows
    `columns`, as the int rows `Matrix.null_space` spans it from (a 1 at one
    non-pivot column each, 0 at the others), with no canonical scalar
    made."""
    p = f.characteristic
    return _kernel_of(p, _echelon_columns(p, _int_view(p, columns)[0]), len(columns))


class Subspace:
    """Subspace of k^n, the span of the int rows given, held as a reduced
    row echelon basis.

    Inside, the basis is its int echelon (`_echelon`), {pivot: row}: the row
    at pivot c is basis[r] times its entry at c, primitive with a positive
    pivot in characteristic 0, basis[r] itself in characteristic p; so it is
    a function of the subspace.  `int_basis` gives these rows as int rows
    (row, pivot entry).  The residual of an int row (`_residual`) subtracts
    the rows at the pivots where it is nonzero, walking its nonzero entries
    against the pivot index: it vanishes on the pivots, and everywhere iff
    the row lies in the subspace.  `int_contains`, `int_coords`,
    `int_from_coords`, `int_extend` and `QuotientSpace.int_project` work from
    these rows; `basis` is made canonical on first use.  No row of the
    echelon is ever written in place, so `int_extend` shares them."""

    def __init__(self, field: Field, ambient_dim: int, rows=()):
        self._set(field, ambient_dim,
                  _echelon(field.characteristic, _entries(rows, ambient_dim), {}))

    def _set(self, field, ambient_dim, index):
        """Hold the echelon `index` {pivot: row}."""
        self.field = field
        self.ambient_dim = ambient_dim
        self._index = index
        self.pivots = sorted(index)
        self._basis = None

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def basis(self):
        """The rref basis, as canonical vectors."""
        if self._basis is None:
            self._basis = [self.field.from_ints(row, self.ambient_dim) for row in self.int_basis]
        return self._basis

    @property
    def int_basis(self):
        """The rref basis as int rows, sharing the dicts of the subspace."""
        index = self._index
        return [(index[c], index[c][c]) for c in self.pivots]

    def _residual(self, row):
        """(w, res, k) for the int row (w, den): w as it comes in, and
        res / (den * k) its residual, as the entries of an int row, zero on
        the pivots."""
        w = row[0]
        _check_row(w, self.ambient_dim)
        return (w, *_reduce(self.field.characteristic, w, self._index))

    def int_contains(self, row):
        return not self._residual(row)[1]

    def int_coords(self, row):
        """Coordinates of an int row in the rref basis, as an int row, or
        None if it lies outside."""
        w, res, _ = self._residual(row)
        if res:
            return None
        coords = {r: w[c] for r, c in enumerate(self.pivots) if c in w}
        return _held(self.field.characteristic, coords), row[1]

    def int_from_coords(self, row):
        """The member with the coordinates of the int row `row`, as an int
        row."""
        c, den = row
        _check_row(c, self.dim, "coordinates")
        pivots, index = self.pivots, self._index
        w, k = _combine(self.field.characteristic, {},
                        [(x, index[pivots[r]], pivots[r]) for r, x in c.items()])
        return w, den * k

    def int_extend(self, rows):
        """The span of self and the int rows `rows`, as a new Subspace; self
        is unchanged.  Only the new rows are reduced, against a copy of this
        echelon, whose rows it shares until one is reduced by a new pivot."""
        f, n = self.field, self.ambient_dim
        out = Subspace.__new__(Subspace)
        out._set(f, n, _echelon(f.characteristic, _entries(rows, n), dict(self._index)))
        return out

    def complement_pivots(self):
        """Standard coordinates not used as pivots; their e_i span a complement."""
        index = self._index
        return [i for i in range(self.ambient_dim) if i not in index]


class QuotientSpace:
    """k^n modulo the span of the int rows `relations`, with explicit
    projection and a section picking standard basis vectors as class
    representatives."""

    def __init__(self, field: Field, ambient_dim: int, relations=()):
        self.field = field
        self.ambient_dim = ambient_dim
        self.sub = Subspace(field, ambient_dim, relations)
        self.reps = self.sub.complement_pivots()
        self.dim = len(self.reps)
        self._rep = {i: r for r, i in enumerate(self.reps)}

    def int_project(self, row):
        """The class of an int row, as an int row of coordinates in the
        representative basis: its residual, which lies on the
        representatives."""
        _, res, k = self.sub._residual(row)
        rep = self._rep
        return {rep[i]: x for i, x in res.items()}, row[1] * k

    def int_lift(self, row):
        """The representative of the class with the coordinates of the int
        row `row`, a sum of multiples of the chosen e_i, as an int row."""
        w = row[0]
        _check_row(w, self.dim, "coordinates")
        reps = self.reps
        return {reps[r]: x for r, x in _held(self.field.characteristic, w).items()}, row[1]
