"""Finite-dimensional algebras by structure constants, module representations
by action matrices, and exact radical computation in any characteristic."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .linalg import (QQ, Field, Matrix, QuotientSpace, Subspace, combination, mul_vec_sum,
                     unit_vector)


class AlgebraError(Exception):
    pass


class RadicalVerificationFailed(AlgebraError):
    pass


def memoised(fn):
    """Memoise fn(a, *args) on the algebra a, in `a._memo` under the key
    (fn.__name__, *args): the one cache of per-algebra results."""
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(a, *args):
        key = (name, *args)
        memo = a._memo
        if key not in memo:
            memo[key] = fn(a, *args)
        return memo[key]

    return wrapper


@dataclass
class FiniteDimAlgebra:
    """An associative unital algebra given by sparse structure constants.

    mult[i][j] is the product e_i * e_j as a list of (k, scalar) pairs."""

    field: Field
    basis: list
    mult: list  # mult[i][j] = [(k, scalar), ...]
    unit: list  # vector of scalars
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self):
        return len(self.basis)

    def forget(self):
        """Clear the memo of this algebra and of every algebra held in it
        (its `opposite`).  Memoised modules point back at their algebra, so
        until then an algebra and all it memoised wait for the cycle
        collector instead of being freed with their last reference."""
        held = [b for b in self._memo.values() if isinstance(b, FiniteDimAlgebra)]
        self._memo.clear()
        for b in held:
            b.forget()

    @memoised
    def _int_mult(self):
        """(scale, table): table[i][j] lists the (k, c * scale) of mult[i][j]
        as ints; scale is 1 in characteristic p and the lcm of the
        denominators of the structure constants in characteristic 0."""
        if self.field.characteristic:
            return 1, self.mult
        scale = lcm(*(c.denominator for row in self.mult for pairs in row for _, c in pairs))
        return scale, [[[(k, c.numerator * (scale // c.denominator)) for k, c in pairs]
                        for pairs in row] for row in self.mult]

    def product_vec(self, u, v):
        """Product of two elements given as coefficient vectors."""
        return self.products([u], [v])[0]

    def products(self, us, vs):
        """[u * v for u in us for v in vs], for elements given as coefficient
        vectors: on ints over `_int_mult`, from one int view of each factor,
        each entry made canonical once, at the end."""
        f = self.field
        d = self.dim
        scale, table = self._int_mult()

        def views(ws):
            out = []
            for w in ws:
                if len(w) != d:
                    raise ValueError(f"factor of length {len(w)} in an algebra of dimension {d}")
                ints, den = f.to_ints(w)
                out.append(([(j, x) for j, x in enumerate(ints) if x], den))
            return out

        right = views(vs)
        out = []
        for nzu, du in views(us):
            for nzv, dv in right:
                acc = [0] * d
                for i, a in nzu:
                    row = table[i]
                    for j, b in nzv:
                        ab = a * b
                        for k, c in row[j]:
                            acc[k] += ab * c
                out.append(f.from_ints(acc, du * dv * scale))
        return out

    @memoised
    def left_mult_matrix(self, i) -> Matrix:
        """Matrix of x -> e_i * x on the regular module."""
        d = self.dim
        return Matrix.from_entries(self.field, d, d, ((k, j, c) for j in range(d)
                                                      for k, c in self.mult[i][j]))

    def validate(self):
        f = self.field
        d = self.dim
        for i in range(d):
            ei = unit_vector(f, d, i)
            if self.product_vec(self.unit, ei) != ei or self.product_vec(ei, self.unit) != ei:
                raise AlgebraError(f"unit law fails at basis element {i}")

        p = f.characteristic
        _, table = self._int_mult()

        def sparse_combine(pairs, pick):
            # sum_k c * pick(k) with sparse (k, c) int inputs, as a dict of
            # the nonzero entries (both sides carry the same scale squared)
            out = {}
            for k, c in pairs:
                for k2, c2 in pick(k):
                    out[k2] = out.get(k2, 0) + c * c2
            if p:
                out = {k: x % p for k, x in out.items()}
            return {k: x for k, x in out.items() if x}

        for i in range(d):
            for j in range(d):
                mij = table[i][j]
                for t in range(d):
                    mjt = table[j][t]
                    if not mij and not mjt:
                        continue  # both sides are 0
                    left = sparse_combine(mij, lambda k: table[k][t])
                    right = sparse_combine(mjt, lambda k: table[i][k])
                    if left != right:
                        raise AlgebraError(f"associativity fails at ({i}, {j}, {t})")
        return self

    def to_json(self):
        return {
            "basis": list(self.basis),
            "unit": [_scalar_to_json(x) for x in self.unit],
            "table": [[i, j, [[k, _scalar_to_json(c)] for k, c in self.mult[i][j]]]
                      for i in range(self.dim) for j in range(self.dim)
                      if self.mult[i][j]],
        }

    @classmethod
    def from_json(cls, obj, f: Field):
        """The algebra of a `to_json` object: "basis" a list of d names,
        "unit" a list of d scalars and "table" a list of [i, j, [[k, c], ...]]
        with int indices in [0, d) and each (i, j) at most once; a scalar is
        an int or a string "n/d" with d invertible in f.  Any other shape
        raises AlgebraError."""
        if not isinstance(obj, dict):
            raise AlgebraError(f"a matrix export must be a JSON object, not {type(obj).__name__}")
        keys = {"basis", "unit", "table"}
        for what, names in (("unknown", set(obj) - keys), ("missing", keys - set(obj))):
            if names:
                raise AlgebraError(f"{what} keys: {sorted(names)}")
        for key in sorted(keys):
            if not isinstance(obj[key], list):
                raise AlgebraError(f"{key!r} must be a list, not {type(obj[key]).__name__}")
        basis = list(obj["basis"])
        d = len(basis)
        if len(obj["unit"]) != d:
            raise AlgebraError("unit vector length mismatch")
        unit = [_scalar_from_json(x, f) for x in obj["unit"]]
        mult = [[[] for _ in range(d)] for _ in range(d)]
        seen = set()
        for n, entry in enumerate(obj["table"]):
            if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[2], list)
                    and all(isinstance(pair, list) and len(pair) == 2 for pair in entry[2])):
                raise AlgebraError(f"table entry {n} is not [i, j, [[k, c], ...]]")
            i, j = (_index_from_json(x, d) for x in entry[:2])
            if (i, j) in seen:
                raise AlgebraError(f"table entry {n} repeats the product ({i}, {j})")
            seen.add((i, j))
            mult[i][j] = [(_index_from_json(k, d), _scalar_from_json(c, f)) for k, c in entry[2]]
        return cls(f, basis, mult, unit)


def _scalar_to_json(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return int(x)


def _scalar_from_json(x, f: Field):
    """The element of f that the JSON scalar x names: an int, or a string
    "n/d" of ints with d invertible in f."""
    if isinstance(x, str):
        num, _, den = x.partition("/")
        try:
            x = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise AlgebraError(f"bad scalar: {x!r} is not n/d with d nonzero") from None
    try:
        return f.of(x)
    except (TypeError, ZeroDivisionError) as e:
        raise AlgebraError(f"bad scalar: {e}") from e


def _index_from_json(x, d):
    if type(x) is not int or not 0 <= x < d:
        raise AlgebraError(f"index {x!r} is not an int in [0, {d})")
    return x


def algebra_from_category(c, f: Field) -> FiniteDimAlgebra:
    """The category algebra: basis = morphisms, product = composition when
    defined and 0 otherwise, unit = sum of the identities."""
    names = list(c.morphisms)
    index = {name: i for i, name in enumerate(names)}
    d = len(names)
    mult = [[[] for _ in range(d)] for _ in range(d)]
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            ma, mb = c.morphisms[a], c.morphisms[b]
            if ma.src == mb.dst:
                mult[i][j] = [(index[c.compose(a, b)], f.one)]
    unit = [f.zero] * d
    for x in c.objects:
        unit[index[c.identity_of(x)]] = f.one
    return FiniteDimAlgebra(f, names, mult, unit)


def group_algebra(g, f: Field) -> FiniteDimAlgebra:
    """The group algebra of a GroupTable."""
    index = {e: i for i, e in enumerate(g.elements)}
    d = len(g.elements)
    mult = [[[(index[g.mul(a, b)], f.one)] for b in g.elements] for a in g.elements]
    unit = unit_vector(f, d, index[g.identity])
    return FiniteDimAlgebra(f, list(g.elements), mult, unit)


@memoised
def opposite(a: FiniteDimAlgebra) -> FiniteDimAlgebra:
    """The opposite algebra: c'_{ij}^k = c_{ji}^k, memoised on `a`.

    Its memo is seeded with the radical and the orthogonal idempotent system
    of `a`, each computed and verified once, on `a`: J(A^op) = J(A) as a
    subspace, since "two-sided nilpotent ideal" reads the same on both
    sides, and a decomposition of 1 into orthogonal idempotents of A is one
    of A^op."""
    d = a.dim
    mult = [[list(a.mult[j][i]) for j in range(d)] for i in range(d)]
    b = FiniteDimAlgebra(a.field, list(a.basis), mult, list(a.unit))
    b._memo[("radical",)] = radical(a)
    b._memo[("primitive_idempotents",)] = primitive_idempotents(a)
    return b


def _trace_vector(a):
    """tr(L_{e_k}) for every basis element e_k, as unreduced scalars."""
    return [sum(c for j, pairs in enumerate(row) for t, c in pairs if t == j)
            for row in a.mult]


def _is_nilpotent_ideal(a, vectors):
    """Whether the span I of `vectors` is a two-sided nilpotent ideal of the
    associative algebra a, checked through left-ideal generators X of I.

    The walk over the rref basis of I keeps v in X when v is outside the span
    S of X and A.X so far, checks e_t.v and v.e_t in I for every basis
    element e_t, and adds v and the e_t.v to S.  At the end S = I, so
    I = A.X is a left ideal, and I.e_t = A.(X.e_t) lies in I: I is a right
    ideal.  The powers follow as I^(k+1) = I^k.A.X = I^k.X, and the chain
    must fall to 0 strictly.  That is about 2 d |X| + sum_k |I^k| |X|
    products, against 2 d |I| + sum_k |I^k| |I| pair by pair.  All but the
    membership tests rest on associativity, which `FiniteDimAlgebra.validate`
    checks."""
    f = a.field
    d = a.dim
    sub = Subspace(f, d, vectors)
    units = [unit_vector(f, d, t) for t in range(d)]
    gens = []
    span = Subspace(f, d)
    for v in sub.basis:
        if span.dim == sub.dim:
            break
        if span.contains(v):
            continue
        left = [w for w in a.products(units, [v]) if any(w)]
        if not all(sub.contains(w) for w in left + a.products([v], units)):
            return False
        gens.append(v)
        span = Subspace(f, d, [*span.basis, v, *left])
    power = sub.basis
    while power:
        nxt = Subspace(f, d, a.products(power, gens))
        if nxt.dim >= len(power) and nxt.dim > 0:
            return False
        power = nxt.basis
    return True


@memoised
def radical(a: FiniteDimAlgebra):
    """Basis of the Jacobson radical, in reduced row echelon form.

    Both characteristics start from the kernel of the trace form of the
    regular representation, I_0 = {x : tr(L_{x e_j}) = 0 for every j}.  In
    characteristic 0 that is the radical (Dickson); in characteristic p it is
    the first member of the chain of `_radical_mod_p`.  Each returned radical
    is verified to be a nilpotent ideal exactly once: here in characteristic
    0, in `_radical_mod_p` in characteristic p.  The check
    (`_is_nilpotent_ideal`) works from left-ideal generators of the
    candidate, so it takes the algebra to be associative: `validate` checks
    that, and the oracle runs it first."""
    f = a.field
    d = a.dim
    whole = Subspace(f, d, [unit_vector(f, d, i) for i in range(d)])
    level0 = _form_kernel(a, whole, _trace_vector(a))
    if f.characteristic:
        return _radical_mod_p(a, level0)
    if not _is_nilpotent_ideal(a, level0.basis):
        raise RadicalVerificationFailed("radical candidate is not a nilpotent ideal")
    return level0.basis


def _form_kernel(a, space, values):
    """The Subspace {x in space : g(x e_j) = 0 for every j}, for a form g
    that is linear on the ideal `space` and takes `values` on its rref basis.

    The coordinates of a member v of `space` are its entries at the pivots,
    so g(v) = sum_k v_k w_k, with w_k the value at pivot k and 0 off the
    pivots.  As x e_j lies in `space` for x in `space`, g(x e_j) is
    sum_i x_i t_ij with t_ij = sum_k c_ij^k w_k, linear in x."""
    f = a.field
    d = a.dim
    # one scale for all of w, the basis and the structure constants, so the
    # int matrix below is a multiple of the form's and has the same kernel
    _, table = a._int_mult()
    w = [0] * d
    for pc, g in zip(space.pivots, f.to_ints(values)[0]):
        w[pc] = g
    basis = f.to_ints([x for b in space.basis for x in b])[0]
    supports = [[(i, x) for i, x in enumerate(basis[r * d:(r + 1) * d]) if x]
                for r in range(space.dim)]
    columns = [[0] * d for _ in supports]
    for j in range(d):
        t = [sum(c * w[k] for k, c in table[i][j]) for i in range(d)]
        for col, nz in zip(columns, supports):
            col[j] = sum(x * t[i] for i, x in nz)
    ker = Matrix.from_columns(f, [f.from_ints(col) for col in columns], rows=d).kernel_basis()
    return Subspace(f, d, [space.from_coords(co) for co in ker])


def _radical_mod_p(a, space):
    """The radical in characteristic p, from I_0 = `space` (Ronyai,
    "Computing the structure of finite algebras", 1990; Cohen, Ivanyos and
    Wales, "Finding the radical of an algebra of linear transformations",
    1997).

    For q = p^i and z in A, let g_i(z) = tr(L_z^q) / q mod p, with L_z lifted
    to an integer matrix (g_0 is the trace).  g_i is linear on I_{i-1}, and
    I_i = {x in I_{i-1} : g_i(x e_j) = 0 for every j} is an ideal containing
    the radical; so g_i is taken once per basis vector of I_{i-1}, not once
    per pair (`_form_kernel`).  I_l is the radical for l = floor(log_p dim A).
    Each I_i is first offered to `_has_non_nilpotent`, which rules out most
    members that are not the radical; the others get the full check once,
    and the first nilpotent ideal among them is the radical and ends the
    chain.  If I_l is not one, or a trace is not divisible by q, the
    computation is refused."""
    p = a.field.characteristic
    q = 1
    while _has_non_nilpotent(a, space.basis) or not _is_nilpotent_ideal(a, space.basis):
        if q * p > a.dim:
            raise RadicalVerificationFailed(
                f"last chain member (q = {q}) is not a nilpotent ideal")
        q *= p
        values = []
        for b in space.basis:
            t = _p_power_trace(_left_mult_ints(a, b), q, p * q)
            if t % q:
                raise RadicalVerificationFailed(f"p-power trace not divisible by {q}")
            values.append(t // q)
        space = _form_kernel(a, space, values)
    return space.basis


def _has_non_nilpotent(a, vectors):
    """Whether some x in `vectors` has x^(2^j) != 0 for the first 2^j > dim A.
    A nilpotent x has x^(dim A) = 0, so such an x proves that no ideal
    containing it is nilpotent: a cheap certificate, by repeated squaring,
    that spares the full `_is_nilpotent_ideal` on most members of the chain
    that are not the radical."""
    for x in vectors:
        e = 1
        while e <= a.dim and any(x):
            x = a.product_vec(x, x)
            e *= 2
        if any(x):
            return True
    return False


def _p_power_trace(intmat, q, modulus):
    """tr(M^q) mod `modulus` for an integer matrix M and q >= 1, every
    product reduced mod `modulus`.  With modulus p*q: t is divisible by q iff
    t mod p*q is, and then (t mod p*q) / q = t / q mod p."""
    m = [[x % modulus for x in row] for row in intmat]
    if q == 1:
        return sum(row[i] for i, row in enumerate(m)) % modulus
    # tr(M^q) = tr(H K) with H = M^(q//2), K = M^(q - q//2): no last product
    half = None
    base, e = m, q // 2
    while e:
        if e & 1:
            half = base if half is None else _int_matmul(half, base, modulus)
        e >>= 1
        if e:
            base = _int_matmul(base, base, modulus)
    other = half if q % 2 == 0 else _int_matmul(half, m, modulus)
    # tr(H K) = sum H[i][j] K[j][i], over the nonzero H[i][j] only
    return sum(x * other[j][i] for i, hrow in enumerate(half)
               for j, x in enumerate(hrow) if x) % modulus


def _left_mult_ints(a, b):
    """L_b, the matrix of x -> b.x on the regular module, in characteristic
    p, as ints in [0, p): column j holds b.e_j = sum_i b_i e_i.e_j, read off
    `_int_mult`.  The same integer lift as `regular_module(a).matrix_of(b)`."""
    p = a.field.characteristic
    _, table = a._int_mult()
    d = a.dim
    m = [[0] * d for _ in range(d)]
    for bi, row in zip(b, table):
        if bi:
            for j, pairs in enumerate(row):
                for k, c in pairs:
                    m[k][j] += bi * c
    return [[x % p for x in row] for row in m]


def _int_matmul(x, y, modulus):
    """x * y mod `modulus` for square integer matrices, over the nonzero
    entries only."""
    n = len(x)
    ynz = [[(j, b) for j, b in enumerate(row) if b] for row in y]
    out = []
    for xi in x:
        acc = [0] * n
        for a, yt in zip(xi, ynz):
            if a:
                for j, b in yt:
                    acc[j] += a * b
        out.append([s % modulus for s in acc])
    return out


# small dense polynomial helpers (coefficient lists, low degree first)


def _poly_normalize(f, p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(f, p, q):
    if not p or not q:
        return []
    out = [f.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b != 0:
                out[i + j] = f.add(out[i + j], f.mul(a, b))
    return _poly_normalize(f, out)


def _poly_divmod(f, p, q):
    p = list(p)
    dq = len(q) - 1
    lead = f.inv(q[-1])
    quo = [f.zero] * max(len(p) - dq, 0)
    while len(p) - 1 >= dq and p:
        c = f.mul(p[-1], lead)
        k = len(p) - 1 - dq
        quo[k] = c
        for i in range(len(q)):
            p[k + i] = f.sub(p[k + i], f.mul(c, q[i]))
        _poly_normalize(f, p)
        if not p:
            break
    return _poly_normalize(f, quo), p


def _poly_xgcd(f, p, q):
    """(g, u, v) with u*p + v*q = g, g monic."""
    r0, r1 = list(p), list(q)
    u0, u1 = [f.one], []
    v0, v1 = [], [f.one]
    while r1:
        quo, rem = _poly_divmod(f, r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, _poly_sub(f, u0, _poly_mul(f, quo, u1))
        v0, v1 = v1, _poly_sub(f, v0, _poly_mul(f, quo, v1))
    if r0:
        lead = f.inv(r0[-1])
        r0 = [f.mul(lead, c) for c in r0]
        u0 = [f.mul(lead, c) for c in u0]
        v0 = [f.mul(lead, c) for c in v0]
    return r0, u0, v0


def _poly_sub(f, p, q):
    n = max(len(p), len(q))
    out = [f.zero] * n
    for i, a in enumerate(p):
        out[i] = a
    for i, b in enumerate(q):
        out[i] = f.sub(out[i], b)
    return _poly_normalize(f, out)


def _poly_eval_element(f, poly, powers):
    """Sum poly[i] * powers[i] for vector-valued powers."""
    n = len(powers[0])
    out = [f.zero] * n
    for c, vec in zip(poly, powers):
        if c != 0:
            out = [f.add(x, f.mul(c, y)) for x, y in zip(out, vec)]
    return out


def _rational_roots(poly):
    """All rational roots of a Fraction-coefficient polynomial."""
    ints = QQ.to_ints(poly)[0]
    roots = set()
    while ints and ints[0] == 0:
        roots.add(Fraction(0))
        ints = ints[1:]
    if len(ints) <= 1:
        return sorted(roots)
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.extend([d, n // d])
            d += 1
        return sorted(set(out))

    for p in divisors(a0):
        for q in divisors(an):
            for r in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * r ** i for i, c in enumerate(ints)) == 0:
                    roots.add(r)
    return sorted(roots)


def _poly_powmod(f, base, e, modulus):
    """base^e mod `modulus`, by repeated squaring."""
    result = [f.one]
    base = _poly_divmod(f, base, modulus)[1]
    while e:
        if e & 1:
            result = _poly_divmod(f, _poly_mul(f, result, base), modulus)[1]
        e >>= 1
        if e:
            base = _poly_divmod(f, _poly_mul(f, base, base), modulus)[1]
    return result


def _field_roots(f, poly):
    """The distinct roots of poly in the field, ascending."""
    p = f.characteristic
    if p == 0:
        return _rational_roots(poly)
    if p == 2:  # the splitting needs p odd; F_2 has two elements to try
        return [r for r, value in ((0, poly[0]), (1, sum(poly))) if value % 2 == 0]
    return _roots_by_splitting(f, poly)


def _roots_by_splitting(f, poly):
    """The distinct roots of poly in F_p, p odd, ascending, in time
    polynomial in log p: g = gcd(poly, x^p - x) is the product of the distinct
    linear factors, and gcd(g, (x + a)^((p-1)/2) - 1) for a = 0, 1, ...
    splits it (equal-degree splitting, Cantor and Zassenhaus 1981, with the
    shifts a tried in order instead of at random).  Two distinct roots r, s
    go apart at any a with (r + a)/(s + a) a non-square, and as a runs over
    F_p that ratio, 1 + (r - s)/(s + a), takes every value but 1."""
    p = f.characteristic
    x = [f.zero, f.one]
    g = _poly_xgcd(f, poly, _poly_sub(f, _poly_powmod(f, x, p, poly), x))[0]
    roots = []
    stack = [g]
    while stack:
        g = stack.pop()
        if len(g) < 3:
            roots += [f.neg(g[0])] if len(g) == 2 else []
            continue
        for a in range(p):
            shifted = _poly_powmod(f, [a, f.one], (p - 1) // 2, g)
            h = _poly_xgcd(f, g, _poly_sub(f, shifted, [f.one]))[0]
            if 1 < len(h) < len(g):
                stack += [h, _poly_divmod(f, g, h)[0]]
                break
        else:
            raise AlgebraError(f"no shift splits {g} over F_{p}")
    return sorted(roots)


@memoised
def primitive_idempotents(a: FiniteDimAlgebra):
    """A complete set of orthogonal idempotents, refined towards primitivity.

    Splitting works in A/rad (semisimple): inside each corner, elements with a
    root-reducible minimal polynomial yield a proper idempotent, which is then
    lifted to an exact idempotent along the nilpotent radical.  Corners where
    no split is found are accepted as-is; the result is always a valid
    orthogonal decomposition of the unit, merely possibly non-primitive."""
    f = a.field
    d = a.dim
    quo = QuotientSpace(f, d, radical(a))

    def bar_mul(u, v):
        return quo.project(a.product_vec(quo.lift(u), quo.lift(v)))

    def split_once(e):
        """e an exact idempotent; return (e1, e2) or None if unsplit."""
        ebar = quo.project(e)
        corner_vecs = []
        for i in range(d):
            ei = unit_vector(f, d, i)
            corner_vecs.append(quo.project(a.product_vec(a.product_vec(e, ei), e)))
        corner = Subspace(f, quo.dim, corner_vecs)
        if corner.dim <= 1:
            return None
        candidates = [list(b) for b in corner.basis]
        candidates += [[f.add(x, y) for x, y in zip(u, v)]
                       for i, u in enumerate(corner.basis)
                       for v in corner.basis[i + 1:]]
        for z in candidates:
            # minimal polynomial of z in the corner, by Krylov iteration
            powers = [ebar, z]
            while True:
                mat = Matrix.from_columns(f, powers[:-1], rows=quo.dim)
                sol = mat.solve(powers[-1])
                if sol is not None:
                    minpoly = [f.neg(c) for c in sol] + [f.one]
                    break
                powers.append(bar_mul(powers[-1], z))
            if len(minpoly) <= 2:
                continue
            roots = _field_roots(f, minpoly)
            split = None
            for r in roots:
                # strip (x - r)^k and check the cofactor is nontrivial
                fac = [f.neg(f.of(r)), f.one]
                f1, rest = [f.one], list(minpoly)
                while True:
                    q_, rem = _poly_divmod(f, rest, fac)
                    if rem:
                        break
                    f1 = _poly_mul(f, f1, fac)
                    rest = q_
                if len(f1) > 1 and len(rest) > 1:
                    split = (f1, rest)
                    break
            if split is None:
                continue
            f1, f2 = split
            _, u, v = _poly_xgcd(f, f1, f2)
            # idempotent = (u*f1)(z): 0 mod f1, 1 mod f2
            h = _poly_mul(f, u, f1)
            _, h = _poly_divmod(f, h, minpoly)
            e1bar = _poly_eval_element(f, h, powers[:len(minpoly)])
            if all(x == 0 for x in e1bar) or e1bar == ebar:
                continue
            e1 = _lift_idempotent(a, e, e1bar, quo)
            e2 = [f.sub(x, y) for x, y in zip(e, e1)]
            return e1, e2
        return None

    seeds = _unit_idempotent_seeds(a)
    prims = []
    stack = list(seeds)
    while stack:
        e = stack.pop()
        got = split_once(e)
        if got is None:
            prims.append(e)
        else:
            stack.extend(got)
    _check_orthogonal_system(a, prims)
    return prims


def _unit_idempotent_seeds(a):
    """The unit's support as exact orthogonal idempotents when it decomposes
    that way (category-algebra identities), else the unit alone."""
    f = a.field
    d = a.dim
    support = [i for i in range(d) if a.unit[i] != 0]
    seeds = []
    for i in support:
        if a.unit[i] != f.one or a.mult[i][i] != [(i, f.one)]:
            return [list(a.unit)]
        for j in support:
            if j != i and a.mult[i][j]:
                return [list(a.unit)]
        seeds.append(unit_vector(f, d, i))
    return seeds or [list(a.unit)]


def _lift_idempotent(a, e, e1bar, quo):
    """Lift a bar-idempotent living in the corner of the exact idempotent e."""
    f = a.field
    u = quo.lift(e1bar)
    u = a.product_vec(a.product_vec(e, u), e)  # stay inside eAe
    for _ in range(2 * a.dim + 4):
        u2 = a.product_vec(u, u)
        if u2 == u:
            return u
        u3 = a.product_vec(u2, u)
        # Newton step u <- 3u^2 - 2u^3 squares the defect ideal
        u = [f.sub(f.mul(f.of(3), x), f.mul(f.of(2), y)) for x, y in zip(u2, u3)]
    raise AlgebraError("idempotent lifting did not converge")


def _check_orthogonal_system(a, prims):
    f = a.field
    total = [f.zero] * a.dim
    for e in prims:
        if a.product_vec(e, e) != e:
            raise AlgebraError("non-idempotent in primitive system")
        total = [f.add(x, y) for x, y in zip(total, e)]
    if total != list(a.unit):
        raise AlgebraError("idempotent system does not sum to the unit")
    for i, e in enumerate(prims):
        for e2 in prims[i + 1:]:
            if any(x != 0 for x in a.product_vec(e, e2)) or \
                    any(x != 0 for x in a.product_vec(e2, e)):
                raise AlgebraError("idempotent system not orthogonal")


@dataclass
class ModuleRep:
    """A left module over a FiniteDimAlgebra: one action matrix per basis
    element of the algebra, acting on column vectors."""

    algebra: FiniteDimAlgebra
    dim: int
    action: list  # list of Matrix, one per algebra basis element

    def validate(self):  # ModuleRep
        a = self.algebra
        f = a.field
        if self.matrix_of(a.unit) != Matrix.identity(f, self.dim):
            raise AlgebraError("unit does not act as identity")
        basis = [unit_vector(f, a.dim, i) for i in range(a.dim)]
        for i, ei in enumerate(basis):
            for j, ej in enumerate(basis):
                if self.action[i] * self.action[j] != self.matrix_of(a.product_vec(ei, ej)):
                    raise AlgebraError(f"action incompatible with product ({i}, {j})")
        return self

    def _terms(self, avec):
        """The (coefficient, action matrix) pairs of the algebra element with
        coefficient vector avec."""
        if len(avec) != self.algebra.dim:
            raise ValueError(f"coefficient vector of length {len(avec)} "
                             f"for an algebra of dimension {self.algebra.dim}")
        return zip(avec, self.action)

    def matrix_of(self, avec) -> Matrix:
        """The action matrix of the algebra element with coefficient vector
        avec: column t is avec . e_t."""
        return combination(self.algebra.field, self._terms(avec), self.dim, self.dim)

    def act(self, avec, v):
        """Apply the algebra element with coefficient vector avec to v."""
        if len(v) != self.dim:
            raise ValueError("length mismatch")
        return mul_vec_sum(self.algebra.field, self._terms(avec), v, self.dim)


def regular_module(a: FiniteDimAlgebra) -> ModuleRep:
    return ModuleRep(a, a.dim, [a.left_mult_matrix(i) for i in range(a.dim)])


def direct_sum(a: FiniteDimAlgebra, reps) -> ModuleRep:
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


def submodule(m: ModuleRep, vectors):
    """Restriction of m to the invariant subspace spanned by `vectors`.

    Returns (rep, inclusion matrix)."""
    f = m.algebra.field
    sub = Subspace(f, m.dim, vectors)
    cols = sub.basis
    incl = Matrix.from_columns(f, cols, rows=m.dim)
    action = []
    for mat in m.action:
        new_cols = []
        for v in cols:
            co = sub.coords(mat.mul_vec(v))
            if co is None:
                raise AlgebraError("subspace is not invariant")
            new_cols.append(co)
        action.append(Matrix.from_columns(f, new_cols, rows=sub.dim))
    return ModuleRep(m.algebra, sub.dim, action), incl


def quotient_module(m: ModuleRep, vectors):
    """Quotient of m by the invariant subspace spanned by `vectors`.

    Returns (rep, projection matrix)."""
    f = m.algebra.field
    quo = QuotientSpace(f, m.dim, vectors)
    proj = Matrix.from_columns(f, [quo.project(unit_vector(f, m.dim, i))
                                   for i in range(m.dim)], rows=quo.dim)
    action = [Matrix.from_columns(f, [quo.project(mat.column(i)) for i in quo.reps],
                                  rows=quo.dim) for mat in m.action]
    return ModuleRep(m.algebra, quo.dim, action), proj


def dual_module(m: ModuleRep) -> ModuleRep:
    """The dual space as a left module over the opposite algebra."""
    return ModuleRep(opposite(m.algebra), m.dim, [mat.transpose() for mat in m.action])


def radical_submodule_vectors(m: ModuleRep):
    """Spanning set of rad(A)·M."""
    return [col for r in radical(m.algebra) for col in m.matrix_of(r).transpose().data]


@memoised
def top_module(a: FiniteDimAlgebra) -> ModuleRep:
    """The left module A / rad(A); contains every simple as a summand."""
    rep, _ = quotient_module(regular_module(a), radical(a))
    return rep
