"""Exact linear algebra over Q and the prime fields F_p.

Vectors have one form: the int row of `Field.to_ints`, the pair (w, den)
of ints w and one denominator with v = w / den, not necessarily in lowest
terms; in characteristic p, den is 1 and w need not be reduced.  `Subspace`,
`QuotientSpace`, `Matrix.int_mul_vec`, `Matrix.from_int_columns`,
`Matrix.null_space` and `int_kernel` take and give int rows.  Canonical
scalars, `fractions.Fraction` in characteristic 0 and ints in [0, p) in
characteristic p, appear only in `Matrix` entries and in what is handed
out: `Subspace.basis`, made canonical by `Field.from_ints`.  Everything is
exact; no floats anywhere.  `Field.of`, `Matrix(...)` and
`FiniteDimAlgebra.from_json` refuse floats and bools; everything else takes
the canonical scalars they and this module hand out.

Matrices are stored dense, row-major.  `rref`, `rank`, `kernel_basis`,
`null_space`, `int_kernel` and `Subspace` share one fraction-free
elimination (`_echelon`).  Products and eliminations work from a
column-sparse int view of the matrix (per column, the (row, value) pairs
with nonzero value, all times one scale) that is built on first use, or
from the ints of `from_int_columns`, and cached on the matrix.  A
`Subspace` keeps the int echelon of its rref basis, which its methods and
`QuotientSpace.int_project` share, and `int_extend` grows it in place of a
rebuild.  So neither a matrix whose view is cached nor a `Subspace.basis`
or `int_basis` may be written in place.  A matrix is built whole and never
changed: `Matrix.from_entries` (scattered entries, repeats adding up),
`Matrix.from_columns`, `Matrix.from_int_columns` and `combination` (a sum
of c * M) are the builders, and nothing outside this module writes `.data`.
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


def unit_rows(n: int):
    """The standard basis of k^n as int rows, in any field."""
    return [([0] * i + [1] + [0] * (n - i - 1), 1) for i in range(n)]


def _fresh_rows(p, ints, n):
    """Fresh int lists, reduced mod p in characteristic p, from the nonzero
    int lists among `ints` (each of length n): what `_echelon` may write in
    place."""
    rows = []
    for w in ints:
        if len(w) != n:
            raise ValueError(f"vector of length {len(w)} in a space of dimension {n}")
        if any(w):
            rows.append([x % p for x in w] if p else list(w))
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

    @classmethod
    def from_int_columns(cls, field, columns, rows):
        """The rows x len(columns) matrix whose columns are the int rows
        `columns`: each column made canonical once, and the int view the
        products use taken from the ints, over the lcm of their
        denominators."""
        m = cls.from_columns(field, [field.from_ints(w, den) for w, den in columns], rows=rows)
        m._sparse = _int_view(field.characteristic, columns)
        return m

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

    def int_mul_vec(self, row):
        """self * v for the int row v, as an int row: touching only the
        nonzero v_j and the nonzeros of their columns."""
        w, den = row
        if len(w) != self.cols:
            raise ValueError("length mismatch")
        p = self.field.characteristic
        columns, scale = self._sparse_view()
        acc = [0] * self.rows
        _accumulate(acc, columns, [(j, x) for j, x in enumerate(w) if x], 1)
        return ([x % p for x in acc], 1) if p else (acc, den * scale)

    def mul_vec(self, v):
        """self * v, on ints (`int_mul_vec`), each entry made canonical once."""
        return self.field.from_ints(*self.int_mul_vec(self.field.to_ints(v)))

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def rref(self):
        """Reduced row echelon form.  Returns (matrix, rank, pivot_columns)."""
        f = self.field
        rows, pivots = _echelon_columns(f.characteristic, self._sparse_view()[0])
        rank = len(pivots)
        data = [f.from_ints(row, row[c]) for row, c in zip(rows, pivots)]
        z = f.zero
        data += [[z] * self.cols for _ in range(self.rows - rank)]
        return Matrix._of(f, data, self.cols), rank, pivots

    def rank(self):
        return len(_echelon_columns(self.field.characteristic, self._sparse_view()[0])[1])

    def _kernel_rows(self):
        return _kernel_columns(self.field.characteristic, self._sparse_view()[0])

    def kernel_basis(self):
        """Basis (list of column vectors) of the right null space."""
        return [self.field.from_ints(w, den) for w, den in self._kernel_rows()]

    def null_space(self):
        """The right null space as a `Subspace`, from the int rows of
        `kernel_basis`."""
        return Subspace(self.field, self.cols, self._kernel_rows())


def _int_view(p, columns):
    """(columns, scale) of the matrix whose columns are the int rows
    `columns`, as `Matrix._sparse_view` gives it: per column the nonzero
    (row, value * scale), over the lcm of their denominators in
    characteristic 0, reduced mod p in characteristic p."""
    if p:
        return [[(i, x % p) for i, x in enumerate(w) if x % p] for w, _ in columns], 1
    scale = lcm(*(den for _, den in columns))
    return [[(i, x * (scale // den)) for i, x in enumerate(w) if x] for w, den in columns], scale


def _echelon_columns(p, columns):
    """(int rows, pivot columns) of `_echelon` on the nonzero rows of the
    matrix whose int view has the columns `columns`; zero rows are never
    eliminated."""
    ncols = len(columns)
    rows = {}
    for j, column in enumerate(columns):
        for i, x in column:
            rows.setdefault(i, [0] * ncols)[j] = x
    rows = [rows[i] for i in sorted(rows)]
    return rows, _echelon(p, rows, ncols)


def _kernel_columns(p, columns):
    """Int rows of the basis of the right null space of the matrix whose
    int view has the columns `columns`, with a 1 at one non-pivot column
    each and 0 at the others."""
    ncols = len(columns)
    rows, pivots = _echelon_columns(p, columns)
    den = 1 if p else lcm(*(row[pc] for row, pc in zip(rows, pivots)))
    pivset = set(pivots)
    out = []
    for c in range(ncols):
        if c in pivset:
            continue
        w = [0] * ncols
        w[c] = den
        for row, pc in zip(rows, pivots):
            if row[c]:
                w[pc] = (-row[c]) % p if p else -row[c] * (den // row[pc])
        out.append((w, den))
    return out


def int_kernel(f: Field, columns):
    """The right null space of the matrix whose columns are the int rows
    `columns`, as the int rows `Matrix.null_space` spans it from (a 1 at one
    non-pivot column each, 0 at the others), with no canonical scalar
    made."""
    return _kernel_columns(f.characteristic, _int_view(f.characteristic, columns)[0])


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
    """Subspace of k^n, the span of the int rows given, held as a reduced
    row echelon basis.

    Inside, the basis is its int echelon (`_echelon`): row r is basis[r]
    times its pivot entry, primitive with a positive pivot in characteristic
    0, basis[r] itself in characteristic p; so it is a function of the
    subspace.  `int_basis` gives these rows as int rows (row, pivot entry),
    `_rows` their nonzero entries and `_scale` D the lcm of the pivot
    entries.  The residual v - sum_r v[pivots[r]] * basis[r] of v = w / den
    is res / (den * D), with res = D w - sum_r w[pivots[r]] (D / pivot
    entry) row_r: it vanishes on the pivots, and everywhere iff v lies in
    the subspace (`_residual`).  `int_contains`, `int_coords`,
    `int_from_coords`, `int_extend` and `QuotientSpace.int_project` work
    from these rows; `basis` is made canonical on first use."""

    def __init__(self, field: Field, ambient_dim: int, rows=()):
        p = field.characteristic
        rows = _fresh_rows(p, (w for w, _ in rows), ambient_dim)
        pivots = _echelon(p, rows, ambient_dim)
        self._set(field, ambient_dim, [(c, row, None) for c, row in zip(pivots, rows)])

    def _set(self, field, ambient_dim, echelon):
        """Hold the (pivot, int row, its nonzero entries or None) of
        `echelon`, in any order of pivots."""
        echelon = sorted(echelon, key=lambda e: e[0])
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivots = [c for c, _, _ in echelon]
        self._ech = [row for _, row, _ in echelon]
        self._rows = [nz if nz is not None else [(j, x) for j, x in enumerate(row) if x]
                      for _, row, nz in echelon]
        p = field.characteristic
        self._scale = 1 if p else lcm(*(row[c] for c, row, _ in echelon))
        self._basis = None

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def basis(self):
        """The rref basis, as canonical vectors."""
        if self._basis is None:
            self._basis = [self.field.from_ints(w, den) for w, den in self.int_basis]
        return self._basis

    @property
    def int_basis(self):
        """The rref basis as int rows, sharing the lists of the subspace."""
        return [(row, row[c]) for row, c in zip(self._ech, self.pivots)]

    def _residual(self, row):
        """res on ints for the int row (w, den): res / (den * D) is the
        residual of w / den, zero on the pivots."""
        w, _ = row
        if len(w) != self.ambient_dim:
            raise ValueError(f"vector of length {len(w)} in a space of dimension {self.ambient_dim}")
        scale = self._scale
        res = list(w) if scale == 1 else [x * scale for x in w]
        for pc, ech, nz in zip(self.pivots, self._ech, self._rows):
            a = w[pc]
            if a:
                a *= scale // ech[pc]
                for j, b in nz:
                    res[j] -= a * b
        return res

    def _inside(self, res):
        p = self.field.characteristic
        return not any([x % p for x in res] if p else res)

    def int_contains(self, row):
        return self._inside(self._residual(row))

    def int_coords(self, row):
        """Coordinates of an int row in the rref basis, as an int row, or
        None if it lies outside."""
        if not self._inside(self._residual(row)):
            return None
        w, den = row
        p = self.field.characteristic
        return [w[pc] % p if p else w[pc] for pc in self.pivots], den

    def int_from_coords(self, row):
        """The member with the coordinates of the int row `row`, as an int
        row."""
        c, den = row
        if len(c) != self.dim:
            raise ValueError(f"{len(c)} coordinates in a subspace of dimension {self.dim}")
        p, scale = self.field.characteristic, self._scale
        out = [0] * self.ambient_dim
        for a, pc, ech, nz in zip(c, self.pivots, self._ech, self._rows):
            if a:
                a *= scale // ech[pc]
                for j, b in nz:
                    out[j] += a * b
        return ([x % p for x in out], 1) if p else (out, den * scale)

    def int_extend(self, rows):
        """The span of self and the int rows `rows`, as a new Subspace; self
        is unchanged.  Only the new rows are reduced, by their residuals
        against this echelon, which vanish on its pivots; the old rows with
        a nonzero entry at a new pivot are then reduced by the new rows, and
        the other old rows are kept as they are."""
        f, n = self.field, self.ambient_dim
        p = f.characteristic
        new = _fresh_rows(p, (self._residual(row) for row in rows), n)
        pivots = _echelon(p, new, n)
        kept, redo = [], []
        for c, row, nz in zip(self.pivots, self._ech, self._rows):
            if any(row[q] for q in pivots):
                redo.append(row[:])
            else:
                kept.append((c, row, nz))
        new = new[:len(pivots)]
        if redo:
            new += redo
            pivots = _echelon(p, new, n)
        out = Subspace.__new__(Subspace)
        out._set(f, n, kept + [(c, row, None) for c, row in zip(pivots, new)])
        return out

    def complement_pivots(self):
        """Standard coordinates not used as pivots; their e_i span a complement."""
        pivset = set(self.pivots)
        return [i for i in range(self.ambient_dim) if i not in pivset]


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

    def int_project(self, row):
        """The class of an int row, as an int row of coordinates in the
        representative basis: its residual at the representatives."""
        res = self.sub._residual(row)
        p = self.field.characteristic
        return ([res[i] % p for i in self.reps], 1) if p else \
            ([res[i] for i in self.reps], row[1] * self.sub._scale)

    def int_lift(self, row):
        """The representative of the class with the coordinates of the int
        row `row`, a combination of the chosen e_i, as an int row."""
        w, den = row
        if len(w) != self.dim:
            raise ValueError(f"{len(w)} coordinates in a quotient of dimension {self.dim}")
        lift = [0] * self.ambient_dim
        for x, i in zip(w, self.reps):
            lift[i] = x
        return lift, den
