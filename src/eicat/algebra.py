"""Finite-dimensional algebras by structure constants, the top A / rad A as
a module, and exact radical computation in any characteristic.

Elements are sparse int rows (`Field.to_ints`) inside: (w, den) with w a
dict of the nonzero entries only, reduced into [1, p) in characteristic p.
Products (`FiniteDimAlgebra.int_products`, `TopModule.int_products`) take
and give them, summing over the nonzero entries of the factors; the
radical's chain and the idempotent splitting run on them, with rows kept in
lowest terms (`_lowest`) wherever values are compared or multiplied again
and again.  `radical(a)` and `primitive_idempotents(a)` are int rows too;
only the structure constants and the unit are field vectors.  Each
per-algebra result is memoised once, in `_memo`, and no memoised value
refers back to its algebra, so an algebra and all it memoised are freed
with its last reference."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import gcd, lcm

from .linalg import QQ, Field, QuotientSpace, Subspace, int_kernel, unit_rows
from .linalg import unit_vector
from .linalg import _check_rows, _is_prime, _nonzero


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

    def int_products(self, us, vs, modulus=None):
        """[u * v for u in us for v in vs] for elements given as int rows
        (`Field.to_ints`), as int rows: over `_int_mult`, from the nonzero
        entries of each factor.  In characteristic 0 the product of
        (u, du) and (v, dv) has denominator du * dv * scale; in
        characteristic p it has denominator 1 and is reduced mod p, or mod
        `modulus`, a multiple of p, for the p-power traces."""
        d = self.dim
        p = modulus or self.field.characteristic
        scale, table = self._int_mult()
        _check_rows(us, d, "factor")
        _check_rows(vs, d, "factor")
        vs = [(v.items(), dv) for v, dv in vs]
        out = []
        for u, du in us:
            rows = [(table[i], a) for i, a in u.items()]
            for v, dv in vs:
                acc = {}
                for row, a in rows:
                    for j, b in v:
                        if pairs := row[j]:
                            ab = a * b
                            for k, c in pairs:
                                acc[k] = acc.get(k, 0) + ab * c
                # most products are zero: no `_nonzero` call for them
                out.append((_nonzero(p, acc) if acc else {}, 1 if p else du * dv * scale))
        return out

    def validate(self):
        """Check the unit law, then associativity on every triple of basis
        elements, on ints: the unit and the basis as int rows through
        `int_products`, the triples through `_associators`, so no Fraction
        arithmetic runs.  In characteristic p a triple fails when p does not
        divide its integer associator; a failure names the least failing
        (i, j, t).  A table with no integer associator is integral, and
        `_radical_mod_p` then takes its p-power traces in the algebra."""
        d = self.dim
        p = self.field.characteristic
        u = self.field.to_ints(self.unit)
        units = unit_rows(d)
        for i, sides in enumerate(zip(self.int_products([u], units), self.int_products(units, [u]))):
            for w, den in sides:
                if w != {i: den}:
                    raise AlgebraError(f"unit law fails at basis element {i}")
        failed = [key for key, content in _associators(self).items() if not p or content % p]
        if failed:
            raise AlgebraError("associativity fails at (%d, %d, %d)" % min(failed))
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


@memoised
def _cells(a):
    """The nonempty cells of the int table (`_int_mult`), indexed both ways:
    (by_row, by_column), by_row[i] the (j, pairs of e_i e_j) and
    by_column[j] the (i, pairs of e_i e_j) with those pairs nonempty.  Every
    other product of two basis elements is 0."""
    _, table = a._int_mult()
    by_row = [[(j, pairs) for j, pairs in enumerate(row) if pairs] for row in table]
    by_column = [[] for _ in range(a.dim)]
    for i, cells in enumerate(by_row):
        for j, pairs in cells:
            by_column[j].append((i, pairs))
    return by_row, by_column


def _basis_multiples(a, v, side):
    """The multiples e_t.v (side "left") or v.e_t ("right") of the int row v,
    through `int_products`, by the basis elements e_t, in order of t, that
    meet an index of v in a nonempty cell of the table (`_cells`).  Every
    other multiple is 0, which lies in every subspace and adds nothing to a
    span."""
    by_row, by_column = _cells(a)
    cells = by_column if side == "left" else by_row
    units = [({t: 1}, 1) for t in sorted({t for j in v[0] for t, _ in cells[j]})]
    return a.int_products(units, [v]) if side == "left" else a.int_products([v], units)


@memoised
def _associators(a):
    """{(i, j, t): the gcd of the coefficients of (e_i e_j) e_t - e_i (e_j e_t)}
    over the triples where that associator, on the int structure constants
    of `_int_mult` (the ints in [0, p) in characteristic p), is nonzero.

    The triples go one t at a time.  The coefficient of e_m in
    (e_i e_j) e_t = sum_k c_ij^k e_k e_t is summed only over the nonzero
    c_ij^k with c_kt != 0 (an index of the (i, j) that produce each k),
    that in e_i (e_j e_t) = sum_l c_jt^l e_i e_l only over the nonzero
    c_jt^l and c_il (the columns of `_cells`), and the two sides are
    compared as dicts keyed by (i, j, m).  A triple on neither side is 0 on
    both, so every triple is checked."""
    d = a.dim
    _, table = a._int_mult()
    by_row, columns = _cells(a)
    producers = [[] for _ in range(d)]  # k -> the (i, j, c_ij^k)
    for i, cells in enumerate(by_row):
        for j, pairs in cells:
            for k, c in pairs:
                producers[k].append((i, j, c))
    out = {}
    for t in range(d):
        left, right = {}, {}
        for k in range(d):
            kt = table[k][t]
            if not kt:
                continue
            for i, j, c in producers[k]:  # c_ij^k c_kt^m in (e_i e_j) e_t
                for m, c2 in kt:
                    left[i, j, m] = left.get((i, j, m), 0) + c * c2
            for l, c in kt:  # c_kt^l c_il^m in e_i (e_k e_t)
                for i, pairs in columns[l]:
                    for m, c2 in pairs:
                        right[i, k, m] = right.get((i, k, m), 0) + c * c2
        for key in left.keys() | right.keys():
            diff = left.get(key, 0) - right.get(key, 0)
            if diff:
                triple = (key[0], key[1], t)
                out[triple] = gcd(out.get(triple, 0), diff)
    return out


def _lowest(p, row):
    """The int row `row` in lowest terms, the one int row of its value: in
    characteristic p the row itself, or over a positive den prime to the
    gcd of its ints."""
    if p:
        return row
    w, den = row
    g = gcd(den, *w.values())
    if den < 0:
        g = -g
    return ({i: x // g for i, x in w.items()}, den // g) if g != 1 else row


def _int_sum(p, terms, den=1):
    """sum c * v / den over the (int c, int row v) of `terms`, in lowest
    terms."""
    scale = lcm(*(d for _, (_, d) in terms))
    acc = {}
    for c, (w, d) in terms:
        if c:
            c *= scale // d
            for i, x in w.items():
                acc[i] = acc.get(i, 0) + c * x
    return _lowest(p, (_nonzero(p, acc), den * scale))


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

    Its memo is seeded with the radical, its generators mod J², the
    orthogonal idempotent system of `a` and its one-sided ideals, each
    computed and verified once, on `a`: J(A^op) = J(A) as a subspace, since
    "two-sided nilpotent ideal" reads the same on both sides, so J² =
    span J·J is the same too; a decomposition of 1 into orthogonal
    idempotents of A is one of A^op; and for each of them, f, A^op·f = f·A
    and f·A^op = A·f, so `_one_sided_ideals` is seeded with each pair
    swapped.  None of these refers back to an algebra."""
    d = a.dim
    mult = [[list(a.mult[j][i]) for j in range(d)] for i in range(d)]
    b = FiniteDimAlgebra(a.field, list(a.basis), mult, list(a.unit))
    b._memo[("radical",)] = radical(a)
    b._memo[("_radical_generators",)] = _radical_generators(a)
    b._memo[("primitive_idempotents",)] = primitive_idempotents(a)
    b._memo[("_one_sided_ideals",)] = [(e, right, left)
                                        for e, left, right in _one_sided_ideals(a)]
    return b


@memoised
def _trace_vector(a):
    """tr(L_{e_k}) for every basis element e_k, as unreduced scalars: in
    characteristic p the exact int traces of the lifts of the constants to
    [0, p)."""
    return [sum(c for j, pairs in enumerate(row) for t, c in pairs if t == j)
            for row in a.mult]


def _is_nilpotent_ideal(a, sub):
    """I² as a Subspace if the Subspace I = `sub` is a two-sided nilpotent
    ideal of the associative algebra a, else None; checked through
    left-ideal generators X of I.

    The walk over the rref basis of I keeps v in X when v is outside the span
    S of X and A.X so far, checks e_t.v and v.e_t in I for every basis
    element e_t that meets v in a nonempty cell of the table (the others
    give 0: `_basis_multiples`), and adds v and the e_t.v to S.  At the end
    S = I, so I = A.X is a left ideal, and I.e_t = A.(X.e_t) lies in I: I is a right
    ideal.  The powers follow as I^(k+1) = I^k.A.X = I^k.X, and the chain
    must fall to 0 strictly; its first step is I².  That is about
    2 d |X| + sum_k |I^k| |X| products, against 2 d |I| + sum_k |I^k| |I|
    pair by pair.  All but the membership tests rest on associativity,
    which `FiniteDimAlgebra.validate` checks."""
    f = a.field
    d = a.dim
    gens = []
    span = Subspace(f, d)
    for v in sub.int_basis:
        if span.dim == sub.dim:
            break
        if span.int_contains(v):
            continue
        left = [w for w in _basis_multiples(a, v, "left") if w[0]]
        if not all(sub.int_contains(w) for w in left + _basis_multiples(a, v, "right")):
            return None
        gens.append(v)
        span = span.int_extend([v, *left])
    powers = [sub]
    while powers[-1].dim:
        powers.append(Subspace(f, d, a.int_products(powers[-1].int_basis, gens)))
        if powers[-1].dim >= powers[-2].dim:
            return None
    return powers[min(1, len(powers) - 1)]


@memoised
def radical(a: FiniteDimAlgebra):
    """Basis of the Jacobson radical, as the int rows of its reduced row
    echelon form.

    Both characteristics start from the kernel of the trace form of the
    regular representation, I_0 = {x : tr(L_{x e_j}) = 0 for every j}.  In
    characteristic 0 that is the radical (Dickson); in characteristic p it is
    the first member of the chain of `_radical_mod_p`, whose p-power traces
    take one of two routes: powers in the algebra when the structure
    constants are associative over Z, int matrix powers otherwise.  Each
    returned radical is verified to be a nilpotent ideal exactly once: here
    in characteristic 0, in `_radical_mod_p` in characteristic p.  The check
    (`_is_nilpotent_ideal`) works from left-ideal generators of the
    candidate, so it takes the algebra to be associative: `validate` checks
    that, and the oracle runs it first."""
    f = a.field
    d = a.dim
    space = _form_kernel(a, Subspace(f, d, unit_rows(d)), _trace_vector(a))
    if f.characteristic:
        space, square = _radical_mod_p(a, space)
    elif (square := _is_nilpotent_ideal(a, space)) is None:
        raise RadicalVerificationFailed("radical candidate is not a nilpotent ideal")
    a._memo[("_radical_square",)] = square
    return space.int_basis


@memoised
def _radical_generators(a):
    """The rows of `radical(a)` that span a complement of J² in J = rad A,
    dim J - dim J² of them, taken greedily against J² = span J·J, as the
    check of the radical formed it (`_is_nilpotent_ideal`)."""
    rows = radical(a)
    span, out = a._memo.pop(("_radical_square",)), []
    for v in rows:
        if not span.int_contains(v):
            out.append(v)
            span = span.int_extend([v])
    return out


def _form_kernel(a, space, values):
    """The Subspace {x in space : g(x e_j) = 0 for every j}, for a form g
    that is linear on the ideal `space` and takes `values` on its rref basis.

    The coordinates of a member v of `space` are its entries at the pivots,
    so g(v) = sum_k v_k w_k, with w_k the value at pivot k and 0 off the
    pivots.  As x e_j lies in `space` for x in `space`, g(x e_j) is
    sum_i x_i t_ij with t_ij = sum_k c_ij^k w_k, linear in x.  t_ij is
    formed over the nonzero products e_i e_j only, and the column of a
    basis vector summed over its nonzero entries and the nonzero t_ij."""
    f = a.field
    d = a.dim
    p = f.characteristic
    # one scale for all of w and the structure constants, so the int matrix
    # below is a multiple of the form's and has the same kernel
    _, table = a._int_mult()
    w = {space.pivots[r]: g for r, g in f.to_ints(values)[0].items()}
    t = []  # row i: the (j, t_ij) with t_ij nonzero
    for row in table:
        ti = []
        for j, pairs in enumerate(row):
            if pairs:
                s = sum(c * w.get(k, 0) for k, c in pairs)
                if s % p if p else s:
                    ti.append((j, s))
        t.append(ti)
    columns = []
    for row, den in space.int_basis:
        col = {}
        for i, x in row.items():
            for j, s in t[i]:
                col[j] = col.get(j, 0) + x * s
        columns.append((_nonzero(p, col), den))
    return Subspace(f, d, [space.int_from_coords(co) for co in int_kernel(f, columns)])


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
    chain, returned as a Subspace with its square.  If I_l is not one, or a
    trace is not divisible by q, the computation is refused.

    tr(L_z^q) mod p*q does not depend on the lift: tr(X^(p^i)) =
    tr(Y^(p^i)) mod p^(i+1) for int matrices X = Y mod p.  When the
    structure constants, as ints in [0, p), are associative over Z (no
    `_associators`, as for every category and group algebra), it is read
    off a power in the algebra (`_power_trace`); otherwise, as for a table
    whose basis was changed mod p, off a power of the int matrix of L_z
    (`_dense_trace`).  Both give the same values, so the same chain."""
    d = a.dim
    p = a.field.characteristic
    trace = _dense_trace if _associators(a) else _power_trace
    q = 1
    while _has_non_nilpotent(a, space.int_basis) or (
            square := _is_nilpotent_ideal(a, space)) is None:
        if q * p > d:
            raise RadicalVerificationFailed(
                f"last chain member (q = {q}) is not a nilpotent ideal")
        q *= p
        values = []
        for b in space.int_basis:
            t = trace(a, b, q)
            if t % q:
                raise RadicalVerificationFailed(f"p-power trace not divisible by {q}")
            values.append(t // q)
        space = _form_kernel(a, space, values)
    return space, square


def _power_trace(a, b, q):
    """tr(L_b^q) mod p*q for the int row b, as tr(L_{b^q}), for structure
    constants associative over Z.

    Their Z-span is then a ring A~ with A~/pA~ = A, whose left
    multiplications L~ are int matrices with L~_x L~_y = L~_{xy}; so
    L~_b^q = L~_{b^q}, and tr(L~_y) = sum_k y_k tau_k is Z-linear in y,
    with tau = `_trace_vector`.  b^q is taken by repeated squaring through
    `int_products`, reduced mod p*q after each product, which the ring map
    A~ -> A~/p*q A~ allows.  L~_b is an int lift of L_b, so by the lift
    lemma of `_radical_mod_p` the value equals `_dense_trace`'s."""
    modulus = a.field.characteristic * q

    def mul(x, y):
        return a.int_products([x], [y], modulus)[0]

    power, base, e = None, b, q
    while e:
        if e & 1:
            power = base if power is None else mul(power, base)
        e >>= 1
        if e:
            base = mul(base, base)
    tau = _trace_vector(a)
    return sum(x * tau[k] for k, x in power[0].items()) % modulus


def _dense_trace(a, b, q):
    """tr(L_b^q) mod p*q for the int row b, on the int matrix whose row j
    is b.e_j from `int_products`, reduced mod p: L_b transposed, whose
    powers have the same traces (`_p_power_trace`)."""
    rows = a.int_products([b], unit_rows(a.dim))
    return _p_power_trace([w for w, _ in rows], q, a.field.characteristic * q)


def _has_non_nilpotent(a, rows):
    """Whether some x among the int rows `rows` has x^(2^j) != 0 for the
    first 2^j > dim A.  A nilpotent x has x^(dim A) = 0, so such an x proves
    that no ideal containing it is nilpotent: a cheap certificate, by
    repeated squaring in lowest terms, that spares the full
    `_is_nilpotent_ideal` on most members of the chain that are not the
    radical."""
    p = a.field.characteristic
    for x in rows:
        e = 1
        x = _lowest(p, x)
        while e <= a.dim and x[0]:
            x = _lowest(p, a.int_products([x], [x])[0])
            e *= 2
        if x[0]:
            return True
    return False


def _p_power_trace(m, q, modulus):
    """tr(M^q) mod `modulus` for an integer matrix M, given by the nonzero
    entries of its rows, reduced or not, and q >= 1, every product reduced
    mod `modulus`.  With modulus p*q: t is divisible by q iff t mod p*q is,
    and then (t mod p*q) / q = t / q mod p."""
    if q == 1:
        return sum(row.get(i, 0) for i, row in enumerate(m)) % modulus
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
    return sum(x * other[j].get(i, 0) for i, hrow in enumerate(half)
               for j, x in hrow.items()) % modulus


def _int_matmul(x, y, modulus):
    """x * y mod `modulus` for square integer matrices given by the nonzero
    entries of their rows."""
    out = []
    for xi in x:
        acc = {}
        for k, a in xi.items():
            for j, b in y[k].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append(_nonzero(modulus, acc))
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
    """Sum poly[i] * powers[i] for int-row powers, as an int row in lowest
    terms."""
    c, den = f.to_ints(poly)
    return _int_sum(f.characteristic, [(x, powers[i]) for i, x in c.items()], den)


def _rational_roots(poly):
    """All rational roots of a Fraction-coefficient polynomial, ascending, in
    time polynomial in its degree and in the size of its coefficients.

    Let s_0 + ... + s_d x^d be its squarefree part with int coefficients.
    The roots r are the integer roots y = s_d r of the monic
    q(y) = s_d^(d-1) s(y / s_d), and |y| < B = 1 + max |q_i| (Cauchy).  At an
    odd prime p where q stays squarefree every root of q mod p is simple, so
    Newton's iteration lifts it to one root mod some m = p^(2^k) > 2B; the
    lift taken in (-m/2, m/2] is kept if q vanishes on it."""
    poly = _poly_normalize(QQ, list(poly))
    if len(poly) < 2:
        return []
    den = lcm(*(c.denominator for c in poly))
    s = _squarefree_ints([c.numerator * (den // c.denominator) for c in poly])
    d, lead = len(s) - 1, s[-1]
    q = [c * lead ** (d - 1 - i) for i, c in enumerate(s[:-1])] + [1]
    dq = [i * c for i, c in enumerate(q)][1:]

    def value(coeffs, y):  # by Horner's rule
        return functools.reduce(lambda acc, c: acc * y + c, reversed(coeffs), 0)

    def squarefree_mod(p):
        fp = Field(p)
        return len(_poly_xgcd(fp, [c % p for c in q], _poly_normalize(fp, [c % p for c in dq]))[0]) == 1

    p = next(p for p in count(3, 2) if _is_prime(p) and squarefree_mod(p))
    roots = []
    for r in _field_roots(Field(p), [c % p for c in q]):
        m = p
        while m <= 2 * (1 + max(map(abs, q))):
            m *= m
            r = (r - value(q, r) * pow(value(dq, r), -1, m)) % m
        y = r - m if 2 * r > m else r
        if value(q, y) == 0:
            roots.append(Fraction(y, lead))
    return sorted(roots)


def _squarefree_ints(c):
    """c / gcd(c, c') for an int polynomial c of degree >= 1, primitive with a
    positive leading coefficient, on ints only: the gcd by a primitive
    pseudo-remainder sequence (Collins 1967), the quotient by one more
    pseudo-division, which scales it by a constant only."""
    def pseudo_divmod(u, v):  # (q, r) with lc(v)^(deg u - deg v + 1) u = q v + r
        scale = v[-1] ** (len(u) - len(v) + 1)
        u = [x * scale for x in u]
        q = [0] * (len(u) - len(v) + 1)
        for k in reversed(range(len(q))):
            q[k] = u[k + len(v) - 1] // v[-1]
            for i, x in enumerate(v):
                u[k + i] -= q[k] * x
        return q, _poly_normalize(None, u[:len(v) - 1])

    def primitive(u):  # u over the gcd of its ints, with a positive leading coefficient
        if not u:
            return u
        g = gcd(*u) if u[-1] > 0 else -gcd(*u)
        return [x // g for x in u]

    g, rem = c, primitive([i * x for i, x in enumerate(c)][1:])
    while rem:
        g, rem = rem, primitive(pseudo_divmod(g, rem)[1])
    return primitive(pseudo_divmod(c, g)[0])


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
    """A complete set of orthogonal idempotents, refined towards primitivity,
    as int rows in lowest terms.

    Splitting works in A/rad (semisimple), the space of `top_module`: inside
    each corner e.A.e, elements with a root-reducible minimal polynomial
    yield a proper idempotent, which is then lifted to an exact idempotent
    along the nilpotent radical.  The corner is taken as two `int_products`
    calls over the unit rows at the top's representatives only: A is their
    span plus rad A, and e.(rad A).e lies in rad A, so the rest adds nothing
    to the corner of A/rad.  The minimal polynomial of z is the first
    dependency among its powers ebar, z, z^2, ... (`int_kernel` of their
    columns), monic at the last power.  Elements stay int rows in lowest
    terms; only the minimal polynomials are converted.  Corners where no
    split is found are accepted as-is; the result is always a valid
    orthogonal decomposition of the unit, merely possibly non-primitive."""
    f = a.field
    p = f.characteristic
    top = top_module(a)
    quo = top.space
    reps = [({i: 1}, 1) for i in quo.reps]

    def split_once(e):
        """e an exact idempotent; return (e1, e2) or None if unsplit."""
        ebar = _lowest(p, quo.int_project(e))
        corner = Subspace(f, quo.dim, [quo.int_project(w) for w in
                                       a.int_products(a.int_products([e], reps), [e])])
        if corner.dim <= 1:
            return None
        basis = corner.int_basis  # primitive rows over their pivots: lowest terms
        candidates = basis + [_int_sum(p, [(1, u), (1, v)])
                              for i, u in enumerate(basis) for v in basis[i + 1:]]
        for z in candidates:
            powers = [ebar, z]
            while not (kernel := int_kernel(f, powers)):
                power = top.int_products([quo.int_lift(powers[-1])], [z])[0]
                powers.append(_lowest(p, power))
            minpoly = f.from_ints(kernel[0], len(powers))
            if len(minpoly) <= 2:
                continue
            for r in _field_roots(f, minpoly):
                # strip (x - r)^k and check the cofactor is nontrivial
                fac = [f.neg(f.of(r)), f.one]
                f1, f2 = [f.one], list(minpoly)
                while not (divided := _poly_divmod(f, f2, fac))[1]:
                    f1, f2 = _poly_mul(f, f1, fac), divided[0]
                if len(f1) > 1 and len(f2) > 1:
                    break
            else:
                continue
            _, u, v = _poly_xgcd(f, f1, f2)
            # idempotent = (u*f1)(z): 0 mod f1, 1 mod f2
            h = _poly_mul(f, u, f1)
            _, h = _poly_divmod(f, h, minpoly)
            e1bar = _poly_eval_element(f, h, powers[:len(minpoly)])
            if not e1bar[0] or e1bar == ebar:
                continue
            e1 = _lift_idempotent(a, e, e1bar, quo)
            return e1, _int_sum(p, [(1, e), (-1, e1)])
        return None

    stack = _unit_idempotent_seeds(a)
    prims = []
    while stack:
        e = stack.pop()
        got = split_once(e)
        if got is None:
            prims.append(e)
        else:
            stack.extend(got)
    _check_orthogonal_system(a, prims)
    return prims


@memoised
def _one_sided_ideals(a):
    """Per idempotent e of `primitive_idempotents(a)`: (e, A·e, e·A), the
    left and the right ideal it generates, as Subspaces of A spanned by the
    multiples of e by the basis (`_basis_multiples`).  A·e is the left
    side's principal projective and, as e·A^op = Hom(A^op·e, A^op), the
    right side's Hom target; e·A the other way round.  `opposite` seeds
    them swapped."""
    f = a.field
    return [(e, Subspace(f, a.dim, _basis_multiples(a, e, "left")),
             Subspace(f, a.dim, _basis_multiples(a, e, "right")))
            for e in primitive_idempotents(a)]


def _unit_idempotent_seeds(a):
    """The unit's support as exact orthogonal idempotents when it decomposes
    that way (category-algebra identities), else the unit alone, as int
    rows in lowest terms."""
    f = a.field
    support = [i for i in range(a.dim) if a.unit[i] != 0]
    if support and all(a.unit[i] == f.one and a.mult[i][i] == [(i, f.one)]
                       and not any(a.mult[i][j] for j in support if j != i) for i in support):
        return [({i: 1}, 1) for i in support]
    return [_lowest(f.characteristic, f.to_ints(a.unit))]


def _lift_idempotent(a, e, e1bar, quo):
    """Lift a bar-idempotent living in the corner of the exact idempotent e,
    all three int rows, to an exact idempotent of A in lowest terms."""
    p = a.field.characteristic

    def mul(x, y):
        return _lowest(p, a.int_products([x], [y])[0])

    u = mul(mul(e, quo.int_lift(e1bar)), e)  # stay inside eAe
    for _ in range(2 * a.dim + 4):
        u2 = mul(u, u)
        if u2 == u:
            return u
        # Newton step u <- 3u^2 - 2u^3 squares the defect ideal
        u = _int_sum(p, [(3, u2), (-2, mul(u2, u))])
    raise AlgebraError("idempotent lifting did not converge")


def _check_orthogonal_system(a, rows):
    """Check that the int rows `rows` are idempotents that sum to the unit
    and multiply to 0 in pairs, from one `int_products` over every ordered
    pair."""
    f = a.field
    p = f.characteristic
    n = len(rows)
    prods = a.int_products(rows, rows)
    for r, e in enumerate(rows):
        if _lowest(p, prods[r * n + r]) != _lowest(p, e):
            raise AlgebraError("non-idempotent in primitive system")
    if _int_sum(p, [(1, e) for e in rows]) != _lowest(p, f.to_ints(a.unit)):
        raise AlgebraError("idempotent system does not sum to the unit")
    if any(w for r, (w, _) in enumerate(prods) if r % (n + 1)):
        raise AlgebraError("idempotent system not orthogonal")


@dataclass
class TopModule:
    """The left module A / rad A, which holds every simple as a summand: the
    quotient space `space` of A by the radical, acted on by the product of
    the algebra through the representatives of the classes."""

    algebra: FiniteDimAlgebra
    space: QuotientSpace

    @property
    def dim(self):
        return self.space.dim

    def int_products(self, us, vs):
        """[u.v for u in us for v in vs] on int rows, u in the algebra and v
        in A / rad A: the class of u times the representative of v in A."""
        q = self.space
        lifts = [q.int_lift(v) for v in vs]
        return [q.int_project(w) for w in self.algebra.int_products(us, lifts)]


@memoised
def _top_space(a):
    """A / rad A as a QuotientSpace of A, memoised on `a`."""
    return QuotientSpace(a.field, a.dim, radical(a))


def top_module(a: FiniteDimAlgebra) -> TopModule:
    """The left module A / rad(A): a fresh TopModule around the memoised
    `_top_space(a)`, so that no memoised value refers back to `a`."""
    return TopModule(a, _top_space(a))
