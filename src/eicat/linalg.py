"""Exact linear algebra over Q and the prime fields F_p.

At the API edge, scalars are `fractions.Fraction` in characteristic 0 and
plain ints in [0, p) in characteristic p.  Inside, every reduction and every
product runs on Python ints.  In characteristic 0 a vector is an int vector
with one denominator (`Field.to_ints`), and a result becomes Fractions once,
entry by entry, on the way out (`Field.from_ints`); in characteristic p the
scalars are the ints, and a product is reduced mod p once, at the end.
Everything is exact; no floats anywhere.  `Field.of`, `Matrix(...)` and
`FiniteDimAlgebra.from_json` refuse floats and bools; everything else takes
the canonical scalars they and this module hand out.

Matrices are stored dense, row-major.  `rref`, `rank`, `kernel_basis`,
`solve` and `Subspace` share one fraction-free elimination (`_echelon`).
Products work from a column-sparse int view of the matrix (per column, the
(row, value) pairs with nonzero value, all times one scale) that is built on
first use and cached on the matrix.  A `Subspace` keeps an int view of its
rref basis, which `coords`, `contains`, `from_coords` and
`QuotientSpace.project` share.  So neither a matrix whose view is cached nor
a `Subspace.basis` may be written in place.  A matrix is built whole and
never changed: `Matrix.from_entries` (scattered entries, repeats adding up),
`Matrix.from_columns` and `combination` (a sum of c * M) are the builders,
and nothing outside this module writes `.data`.
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
            return pow(a, -1, p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def invertible(self, n: int) -> bool:
        """Whether the integer n is invertible in this field."""
        p = self.characteristic
        return n % p != 0 if p else n != 0

    def to_ints(self, v):
        """(w, den) with v = w / den: in characteristic 0, w holds ints and
        den is the lcm of the denominators of v; in characteristic p, w is v
        itself (ints, reduced or not) and den is 1."""
        if self.characteristic:
            return v, 1
        den = lcm(*(x.denominator for x in v if x is not _ZERO))
        if den == 1:
            return [0 if x is _ZERO else x.numerator for x in v], 1
        return [0 if x is _ZERO else x.numerator * (den // x.denominator) for x in v], den

    def from_ints(self, w, den=1):
        """The canonical vector w / den for ints w; den is 1 in
        characteristic p, where w is reduced mod p."""
        p = self.characteristic
        if p:
            return [x % p for x in w]
        if den == 1:
            return [Fraction(x) if x else _ZERO for x in w]
        return [Fraction(x, den) if x else _ZERO for x in w]


QQ = Field(0)


def unit_vector(f: Field, n: int, i: int):
    """The i-th standard basis vector of f^n."""
    v = [f.zero] * n
    v[i] = f.one
    return v


def _int_rows(f: Field, vectors, n):
    """Fresh int rows spanning the same rows as `vectors` (each of length
    n): a row of Fractions is cleared of its own denominators, a row mod p
    is reduced."""
    p = f.characteristic
    rows = []
    for v in vectors:
        if len(v) != n:
            raise ValueError(f"vector of length {len(v)} in a space of dimension {n}")
        rows.append([x % p for x in v] if p else f.to_ints(v)[0])
    return rows


def _echelon(p, rows, ncols):
    """Gauss-Jordan elimination, in place, of int rows (reduced mod p in
    characteristic p); returns the pivot columns.  rows[:rank] are then the
    reduced rows: row r has its pivot at pivots[r] and zeros at the other
    pivots.  In characteristic p the pivot is 1.  In characteristic 0 the
    elimination is fraction-free (Bareiss 1968 without the exact divisor):
    row i becomes a*row_i - row_i[c]*pivot_row for the pivot a at column c,
    divided by its content; the pivot is positive and the row primitive, so
    row / pivot is the rref row in lowest terms."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        a = prow[c]
        if p:
            if a != 1:
                inv = pow(a, -1, p)
                prow = [x * inv % p for x in prow]
        elif a < 0:
            prow = [-x for x in prow]
            a = -a
        rows[r] = prow
        nz = [(j, y) for j, y in enumerate(prow) if y]
        for i in range(nrows):
            row = rows[i]
            b = row[c]
            if not b or i == r:
                continue
            if p:
                for j, y in nz:
                    row[j] = (row[j] - b * y) % p
            elif a == 1:
                for j, y in nz:
                    row[j] -= b * y
            else:
                row = [a * x for x in row]
                for j, y in nz:
                    row[j] -= b * y
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    if not p:
        for i in range(r):
            g = gcd(*rows[i])
            if g > 1:
                rows[i] = [x // g for x in rows[i]]
    return pivots


class Matrix:
    """Dense matrix over a Field; row-major list-of-lists storage, plus the
    column-sparse int view the products build on first use."""

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

    def copy(self):
        return Matrix._of(self.field, [row[:] for row in self.data], self.cols)

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def transpose(self):
        return Matrix._of(self.field, [self.column(j) for j in range(self.cols)], self.rows)

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

    def mul_vec(self, v):
        """self * v, touching only the nonzero v_j and the nonzeros of their
        columns: on ints, with each entry made canonical once, at the end."""
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        f = self.field
        w, den = f.to_ints(v)
        columns, scale = self._sparse_view()
        acc = [0] * self.rows
        _accumulate(acc, columns, [(j, x) for j, x in enumerate(w) if x], 1)
        return f.from_ints(acc, den * scale)

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def _reduced_rows(self):
        """(int rows, pivot columns) of `_echelon` on the rows of self."""
        rows = _int_rows(self.field, self.data, self.cols)
        return rows, _echelon(self.field.characteristic, rows, self.cols)

    def rref(self):
        """Reduced row echelon form.  Returns (matrix, rank, pivot_columns)."""
        f = self.field
        rows, pivots = self._reduced_rows()
        rank = len(pivots)
        data = [f.from_ints(row, row[c]) for row, c in zip(rows, pivots)]
        z = f.zero
        data += [[z] * self.cols for _ in range(self.rows - rank)]
        return Matrix._of(f, data, self.cols), rank, pivots

    def rank(self):
        return len(self._reduced_rows()[1])

    def kernel_basis(self):
        """Basis (list of column vectors) of the right null space."""
        f = self.field
        p = f.characteristic
        rows, pivots = self._reduced_rows()
        pivset = set(pivots)
        basis = []
        for c in range(self.cols):
            if c in pivset:
                continue
            v = unit_vector(f, self.cols, c)
            for row, pc in zip(rows, pivots):
                x = row[c]
                if x:
                    v[pc] = (-x) % p if p else Fraction(-x, row[pc])
            basis.append(v)
        return basis

    def solve(self, b):
        """One solution x of self * x = b, or None if inconsistent."""
        f = self.field
        if len(b) != self.rows:
            raise ValueError("length mismatch")
        n = self.cols
        rows = _int_rows(f, [row + [bi] for row, bi in zip(self.data, b)], n + 1)
        pivots = _echelon(f.characteristic, rows, n + 1)
        if n in pivots:
            return None
        x = [f.zero] * n
        for row, pc in zip(rows, pivots):
            x[pc] = f.from_ints([row[n]], row[pc])[0]
        return x


def _accumulate(acc, columns, nz, factor):
    """acc += factor * M * w on ints, for M given by the columns of its
    sparse view and w by the (index, value) pairs nz of its nonzero
    entries."""
    for j, x in nz:
        col = columns[j]
        if col:
            x *= factor
            for i, a in col:
                acc[i] += a * x


def combination(f: Field, terms, rows, cols):
    """The rows x cols matrix sum c * m over the (c, m) of `terms`: per
    nonzero c, the columns of m's sparse view and an int factor, all over one
    lcm of the views' scales; per column, one int accumulator and one
    conversion to canonical scalars."""
    terms = [(c, m) for c, m in terms if c]
    if any(m.cols != cols for _, m in terms):
        raise ValueError("length mismatch")
    cs, cden = f.to_ints([c for c, _ in terms])
    views = [m._sparse_view() for _, m in terms]
    scale = lcm(*(s for _, s in views))
    views = [(view, c * (scale // s)) for c, (view, s) in zip(cs, views)]
    columns = []
    for j in range(cols):
        acc = [0] * rows
        unit = [(j, 1)]
        for view, factor in views:
            _accumulate(acc, view, unit, factor)
        columns.append(f.from_ints(acc, cden * scale))
    return Matrix.from_columns(f, columns, rows=rows)


class Subspace:
    """Subspace of k^n held as a reduced row echelon basis.

    As the basis is reduced, the coordinates of a member v are its entries
    at the pivots, and the residual v - sum_r v[pivots[r]] * basis[r]
    vanishes on the pivots.  `_residual` computes it on the other columns,
    `complement_pivots()`, from an int view of the basis: one scale D
    (`_scale`) and, per basis vector, the nonzero entries of D times it off
    the pivots (`_rows`, indexed by position in `complement_pivots()`).
    `coords`, `contains`, `from_coords` and `QuotientSpace.project` all work
    from that view."""

    def __init__(self, field: Field, ambient_dim: int, vectors=()):
        self.field = field
        self.ambient_dim = ambient_dim
        p = field.characteristic
        rows = _int_rows(field, vectors, ambient_dim)
        self.pivots = _echelon(p, rows, ambient_dim)
        rows = rows[:len(self.pivots)]
        self.basis = [field.from_ints(row, row[c]) for row, c in zip(rows, self.pivots)]
        self._comp = self.complement_pivots()
        self._scale = 1 if p else lcm(*(row[c] for row, c in zip(rows, self.pivots)))
        self._rows = [[(k, row[j] * (self._scale // row[c])) for k, j in enumerate(self._comp)
                       if row[j]] for row, c in zip(rows, self.pivots)]

    @property
    def dim(self):
        return len(self.basis)

    def _residual(self, v):
        """(w, den, res): v = w / den on ints, and res on ints with
        res[k] / (den * D) the residual of v at complement_pivots()[k]."""
        if len(v) != self.ambient_dim:
            raise ValueError(f"vector of length {len(v)} in a space of dimension {self.ambient_dim}")
        w, den = self.field.to_ints(v)
        scale = self._scale
        res = [w[j] * scale for j in self._comp]
        for pc, row in zip(self.pivots, self._rows):
            a = w[pc]
            if a:
                for k, b in row:
                    res[k] -= a * b
        return w, den, res

    def _inside(self, res):
        p = self.field.characteristic
        return not any(x % p for x in res) if p else not any(res)

    def contains(self, v):
        return self._inside(self._residual(v)[2])

    def coords(self, v):
        """Coordinates of v in the rref basis, or None if v is outside."""
        w, den, res = self._residual(v)
        if not self._inside(res):
            return None
        return self.field.from_ints([w[pc] for pc in self.pivots], den)

    def from_coords(self, coords):
        """The member of the subspace with the given coordinates."""
        if len(coords) != self.dim:
            raise ValueError(f"{len(coords)} coordinates in a subspace of dimension {self.dim}")
        f = self.field
        c, den = f.to_ints(coords)
        scale, comp = self._scale, self._comp
        out = [0] * self.ambient_dim
        for a, pc, row in zip(c, self.pivots, self._rows):
            if a:
                out[pc] = a * scale
                for k, b in row:
                    out[comp[k]] += a * b
        return f.from_ints(out, den * scale)

    def complement_pivots(self):
        """Standard coordinates not used as pivots; their e_i span a complement."""
        pivset = set(self.pivots)
        return [i for i in range(self.ambient_dim) if i not in pivset]


class QuotientSpace:
    """k^n modulo the span of relation vectors, with explicit projection and
    a section picking standard basis vectors as class representatives."""

    def __init__(self, field: Field, ambient_dim: int, relations=()):
        self.field = field
        self.ambient_dim = ambient_dim
        self.sub = Subspace(field, ambient_dim, relations)
        self.reps = self.sub.complement_pivots()
        self.dim = len(self.reps)

    def project(self, v):
        """Coordinates of the class of v in the representative basis: the
        residual of v modulo the relations, at the representatives."""
        _, den, res = self.sub._residual(v)
        return self.field.from_ints(res, den * self.sub._scale)

    def lift(self, coords):
        """The representative of a class: a combination of the chosen e_i."""
        if len(coords) != self.dim:
            raise ValueError(f"{len(coords)} coordinates in a quotient of dimension {self.dim}")
        v = [self.field.zero] * self.ambient_dim
        for a, i in zip(coords, self.reps):
            v[i] = a
        return v
