"""Exact linear algebra over Q and the prime fields F_p.

Scalars are `fractions.Fraction` in characteristic 0 and plain ints in
[0, p) in characteristic p.  Everything is exact; no floats anywhere:
`Field.of` refuses floats and bools.

Matrices are stored dense, row-major.  `Matrix.mul_vec` works from a
column-sparse view (per column, the (row, value) pairs with nonzero value)
that is built on the first call and cached on the matrix.  So a matrix must
not be written in place after its first `mul_vec`; every in-place write to
`.data` happens in a builder before the matrix is handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

# The first 13 primes.  Miller-Rabin with these bases is exact below
# PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


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
        return 0 if self.characteristic else Fraction(0)

    @property
    def one(self):
        return 1 if self.characteristic else Fraction(1)

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
            return Fraction(n)
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


QQ = Field(0)


def unit_vector(f: Field, n: int, i: int):
    """The i-th standard basis vector of f^n."""
    v = [f.zero] * n
    v[i] = f.one
    return v


class Matrix:
    """Dense matrix over a Field; row-major list-of-lists storage, plus the
    column-sparse view `mul_vec` builds on first use."""

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
    def zeros(cls, field, rows, cols):
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m._sparse = None
        z = field.zero
        m.data = [[z] * cols for _ in range(rows)]
        return m

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        one = field.one
        for i in range(n):
            m.data[i][i] = one
        return m

    @classmethod
    def from_columns(cls, field, columns, rows=None):
        if not columns:
            return cls.zeros(field, rows or 0, 0)
        nr = len(columns[0])
        if nr == 0:
            return cls.zeros(field, 0, len(columns))
        return cls(field, [[col[i] for col in columns] for i in range(nr)])

    def copy(self):
        m = Matrix.__new__(Matrix)
        m.field = self.field
        m.rows = self.rows
        m.cols = self.cols
        m._sparse = None
        m.data = [row[:] for row in self.data]
        return m

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def transpose(self):
        return Matrix(self.field, [[self.data[i][j] for i in range(self.rows)]
                                   for j in range(self.cols)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(tuple, self.data))))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data})"

    def __add__(self, other):
        f = self.field
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(f, [[f.add(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)])

    def scale(self, c):
        f = self.field
        c = f.of(c)
        return Matrix(f, [[f.mul(c, x) for x in row] for row in self.data])

    def __mul__(self, other):
        f = self.field
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        p = f.characteristic
        out = Matrix.zeros(f, self.rows, other.cols)
        bdata = other.data
        for i in range(self.rows):
            arow = self.data[i]
            orow = out.data[i]
            for t in range(self.cols):
                a = arow[t]
                if a == 0:
                    continue
                brow = bdata[t]
                if p:
                    for j in range(other.cols):
                        orow[j] = (orow[j] + a * brow[j]) % p
                else:
                    for j in range(other.cols):
                        orow[j] = orow[j] + a * brow[j]
        return out

    def _sparse_view(self):
        """(columns, scale): per column the (row, value) pairs with nonzero
        value, as integers value * scale; scale is 1 in characteristic p and
        the lcm of the denominators in characteristic 0."""
        if self._sparse is None:
            scale = 1 if self.field.characteristic else \
                lcm(*(x.denominator for row in self.data for x in row if x))
            columns = [[] for _ in range(self.cols)]
            for i, row in enumerate(self.data):
                for j, a in enumerate(row):
                    if a:
                        columns[j].append((i, int(a * scale)))
            self._sparse = (columns, scale)
        return self._sparse

    def mul_vec(self, v):
        """self * v, touching only the nonzero v_j and the nonzeros of their
        columns.  In characteristic 0 the denominators of v and of the matrix
        are cleared first, so the loop runs on ints and each entry becomes a
        Fraction once, at the end; in characteristic p it reduces once."""
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        columns, scale = self._sparse_view()
        p = self.field.characteristic
        den = 1 if p else lcm(*(x.denominator for x in v if x))
        acc = [0] * self.rows
        for x, col in zip(v, columns):
            if x:
                if not p:
                    x = x.numerator * (den // x.denominator)
                for i, a in col:
                    acc[i] += a * x
        if p:
            return [s % p for s in acc]
        den *= scale
        zero = Fraction(0)
        return [Fraction(s, den) if s else zero for s in acc]

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        return Matrix(self.field, [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def rref(self):
        """Reduced row echelon form.  Returns (matrix, rank, pivot_columns)."""
        f = self.field
        m = self.copy()
        data = m.data
        pivots = []
        r = 0
        for c in range(m.cols):
            piv = None
            for i in range(r, m.rows):
                if data[i][c] != 0:
                    piv = i
                    break
            if piv is None:
                continue
            data[r], data[piv] = data[piv], data[r]
            inv = f.inv(data[r][c])
            if inv != 1:
                data[r] = [f.mul(inv, x) for x in data[r]]
            for i in range(m.rows):
                if i != r and data[i][c] != 0:
                    fac = data[i][c]
                    row_r = data[r]
                    data[i] = [f.sub(x, f.mul(fac, y)) for x, y in zip(data[i], row_r)]
            pivots.append(c)
            r += 1
            if r == m.rows:
                break
        return m, r, pivots

    def rank(self):
        return self.rref()[1]

    def kernel_basis(self):
        """Basis (list of column vectors) of the right null space."""
        f = self.field
        R, rank, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        basis = []
        for c in free:
            v = [f.zero] * self.cols
            v[c] = f.one
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(R.data[r][c])
            basis.append(v)
        return basis

    def solve(self, b):
        """One solution x of self * x = b, or None if inconsistent."""
        f = self.field
        if len(b) != self.rows:
            raise ValueError("length mismatch")
        aug = Matrix(f, [row + [bi] for row, bi in zip(self.data, b)]) \
            if self.rows else Matrix.zeros(f, 0, self.cols + 1)
        R, rank, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [f.zero] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = R.data[r][self.cols]
        return x


class Subspace:
    """Subspace of k^n held as a reduced row echelon basis."""

    def __init__(self, field: Field, ambient_dim: int, vectors=()):
        self.field = field
        self.ambient_dim = ambient_dim
        if vectors:
            R, rank, pivots = Matrix(field, list(vectors)).rref()
            self.basis = R.data[:rank]
            self.pivots = pivots
        else:
            self.basis = []
            self.pivots = []

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        return self.coords(v) is not None

    def coords(self, v):
        """Coordinates of v in the rref basis, or None if v is outside."""
        f = self.field
        c = [f.of(x) for x in v]
        out = []
        for row, pc in zip(self.basis, self.pivots):
            a = c[pc]
            out.append(a)
            if a != 0:
                c = [f.sub(x, f.mul(a, y)) for x, y in zip(c, row)]
        if any(x != 0 for x in c):
            return None
        return out

    def from_coords(self, coords):
        f = self.field
        v = [f.zero] * self.ambient_dim
        for a, row in zip(coords, self.basis):
            if a != 0:
                v = [f.add(x, f.mul(a, y)) for x, y in zip(v, row)]
        return v

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
        """Coordinates of the class of v in the representative basis."""
        f = self.field
        c = [f.of(x) for x in v]
        for row, pc in zip(self.sub.basis, self.sub.pivots):
            a = c[pc]
            if a != 0:
                c = [f.sub(x, f.mul(a, y)) for x, y in zip(c, row)]
        return [c[i] for i in self.reps]

    def lift(self, coords):
        """The representative of a class: a combination of the chosen e_i."""
        f = self.field
        v = [f.zero] * self.ambient_dim
        for a, i in zip(coords, self.reps):
            v[i] = a
        return v
