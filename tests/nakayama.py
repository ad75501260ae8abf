"""Nakayama algebras from their Kupisch series, and the dimensions of their
modules in closed form: a second oracle for the oracle, on a family outside
the corpus (Gustafson, "Global dimension in serial rings", 1985).

The quiver has the vertices 0..n-1 and an arrow i -> i+1 for each i < n-1,
plus n-1 -> 0 when the series is cyclic.  The series c = (c_0, .., c_{n-1})
says that the path (i, l) from i of length l, ending at i + l mod n, is
nonzero iff l < c_i.  It is valid when every c_i >= 1 and c_{i+1} >= c_i - 1
(indices mod n), so the nonzero paths are closed under taking subpaths,
and either c_{n-1} = 1 (the linear quiver: the arrow n-1 -> 0 is zero) or
every c_i >= 2 (the cyclic one).

The basis is the nonzero paths, and x.y is y followed by x, or 0.  So the
left ideal A·e_t is spanned by the paths from t: the projective P_t is
uniserial with composition factors S_t, S_{t+1}, .., S_{t+c_t-1} from the
top down.  Every indecomposable module is uniserial, a quotient (t, l) of
P_t by rad^l, with top t and length l <= c_t.  Its projective cover is P_t,
so Ω(t, l) = (t + l, c_t - l).  Dually, with d_s the number of nonzero
paths ending at s, the injective envelope of the uniserial with socle s and
length l has length d_s, so Ω⁻¹(socle s, length l) = (s - l, d_s - l).  The
right modules are the left modules of the opposite algebra, whose series,
with the vertex i renamed -i, is c'_i = d_{-i}.  A dimension is the number
of steps to a projective (an injective), or None, for infinite, once a step
repeats a module."""

from __future__ import annotations

from itertools import product

from eicat.algebra import FiniteDimAlgebra


def kupisch_series(n_max, c_max):
    """Every valid series with 1 <= n <= n_max vertices and c_i <= c_max, in
    lexicographic order for each n."""
    return [c for n in range(1, n_max + 1) for c in product(range(1, c_max + 1), repeat=n)
            if all(c[(i + 1) % n] >= c[i] - 1 for i in range(n))
            and (c[-1] == 1 or min(c) >= 2)]


def nakayama_algebra(c, f) -> FiniteDimAlgebra:
    """The algebra of the series c over the field f, with the basis the
    paths (i, l), named "i+l", in order of i and then l."""
    n = len(c)
    paths = [(i, l) for i in range(n) for l in range(c[i])]
    index = {p: k for k, p in enumerate(paths)}
    mult = [[[(index[j, m + l], f.one)] if (j + m) % n == i and m + l < c[j] else []
             for j, m in paths] for i, l in paths]
    return FiniteDimAlgebra(f, [f"{i}+{l}" for i, l in paths], mult,
                            [f.one if l == 0 else f.zero for _, l in paths])


def _ends(c):
    """d_s: the number of nonzero paths ending at s."""
    n, d = len(c), [0] * len(c)
    for i, l in ((i, l) for i in range(n) for l in range(c[i])):
        d[(i + l) % n] += 1
    return d


def _steps(module, step, done):
    """The number of steps from module to one where `done` holds, or None
    when a step repeats a module."""
    seen = set()
    while not done(module):
        if module in seen:
            return None
        seen.add(module)
        module = step(module)
    return len(seen)


def _max(values):
    values = list(values)
    return None if None in values else max(values)


def global_dimension(c):
    """max pd S_t over the simples (t, 1)."""
    n = len(c)
    return _max(_steps((t, 1), lambda m: ((m[0] + m[1]) % n, c[m[0]] - m[1]),
                       lambda m: m[1] == c[m[0]]) for t in range(n))


def injective_dimension(c):
    """id of the left regular module: max id P_t, P_t having socle
    t + c_t - 1 and length c_t."""
    n, d = len(c), _ends(c)
    return _max(_steps(((t + c[t] - 1) % n, c[t]), lambda m: ((m[0] - m[1]) % n, d[m[0]] - m[1]),
                       lambda m: m[1] == d[m[0]]) for t in range(n))


def dimensions(c):
    """(id of A as a left module, id as a right module, gldim), None for
    infinite; the right side is the left side of the opposite series."""
    d = _ends(c)
    opposite = [d[-i % len(c)] for i in range(len(c))]
    return injective_dimension(c), injective_dimension(opposite), global_dimension(c)
