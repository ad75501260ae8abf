"""Inputs the corpus lacks, shared by several test modules: the Boolean
lattice of subsets and the transporter category of S3 permuting {1, 2, 3}
acting on its subsets, both built from `eicat.families`, algebras with their
basis permuted or changed mod p, and malformed category JSON and matrix
exports.  Collects no tests itself."""

from __future__ import annotations

import itertools
from fractions import Fraction

from eicat.algebra import FiniteDimAlgebra
from eicat.families import Poset, transporter_category
from eicat.groups import GroupAction, symmetric_group_3
from eicat.linalg import Subspace, unit_vector


def _subsets(n, max_size):
    pts = range(1, n + 1)
    return [s for k in range(max_size + 1) for s in itertools.combinations(pts, k)]


def _subset_name(s):
    return "s" + "".join(map(str, s)) if s else "s0"


def boolean_poset(n, max_size=None):
    """Subsets of {1..n} of size <= max_size (all when None), ordered by
    inclusion."""
    subs = _subsets(n, n if max_size is None else max_size)
    pairs = [(_subset_name(a), _subset_name(b)) for a in subs for b in subs
             if a != b and set(a) <= set(b)]
    return Poset.from_pairs([_subset_name(s) for s in subs], pairs)


def s3_transporter(max_size):
    """S3 permuting {1, 2, 3}, acting on its subsets of size <= max_size."""
    g = symmetric_group_3()
    perm = {"e": (1, 2, 3), "r": (2, 3, 1), "r2": (3, 1, 2),
            "s": (2, 1, 3), "sr": (1, 3, 2), "sr2": (3, 2, 1)}
    subs = _subsets(3, max_size)
    act = {(e, _subset_name(s)): _subset_name(tuple(sorted(perm[e][i - 1] for i in s)))
           for e in g.elements for s in subs}
    p = boolean_poset(3, max_size)
    return transporter_category(g, p, GroupAction(g, list(p.elements), act))


def permuted(a, rng):
    """The algebra a with its basis put in a random order drawn from rng:
    names, unit and structure constants relabelled alike, so an isomorphic
    copy whose radical, top and idempotents come out in other coordinates."""
    order = list(range(a.dim))
    rng.shuffle(order)  # new index i holds old basis element order[i]
    new = {old: i for i, old in enumerate(order)}
    mult = [[[(new[k], c) for k, c in a.mult[i][j]] for j in order] for i in order]
    return FiniteDimAlgebra(a.field, [a.basis[i] for i in order], mult,
                            [a.unit[i] for i in order])


def rebased(a, rng):
    """The algebra a in a random basis drawn from rng: new basis element i is
    the row P[i] of a random invertible P, and the structure constants and
    the unit are their coordinates in the rows of P.  Over F_p, P is any
    invertible matrix, and the constants, read as ints in [0, p), are
    mostly not associative over Z.  Over Q, P is unit lower triangular with
    a fifth of the entries below the diagonal n/d, d in 1..3, so that the
    constants, the idempotents and the rref rows of the ideals have unequal
    denominators.  Returns the algebra and P, so that the element with
    coordinates v in the new basis is sum_i v_i P[i] in the old one."""
    f, d = a.field, a.dim
    while True:
        rows = [[rng.randrange(f.characteristic) for _ in range(d)] for _ in range(d)] \
            if f.characteristic else \
            [[f.one if i == j else f.of(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
              if j < i and rng.random() < 0.2 else f.zero for j in range(d)] for i in range(d)]
        # the rref of [P | I] is [I | P^-1] when P is invertible
        both = Subspace(f, 2 * d, [f.to_ints(row + unit_vector(f, d, i))
                                   for i, row in enumerate(rows)])
        if both.pivots == list(range(d)):
            break
    inverse = [row[d:] for row in both.basis]

    def coords(x):  # y with x = sum_i y_i P[i], that is y = x P^-1
        y = [f.zero] * d
        for xk, inv in zip(x, inverse):
            if xk:
                y = [f.add(s, f.mul(xk, z)) for s, z in zip(y, inv)]
        return y

    ints = [f.to_ints(row) for row in rows]
    products = (f.from_ints(w, d) for w in a.int_products(ints, ints))
    mult = [[[(k, c) for k, c in enumerate(coords(next(products))) if c] for _ in range(d)]
            for _ in range(d)]
    return FiniteDimAlgebra(f, [f"b{i}" for i in range(d)], mult, coords(a.unit)), rows


def _chain_raw():
    return {
        "objects": ["x", "y"],
        "morphisms": [
            {"id": "ix", "src": "x", "dst": "x", "identity": True},
            {"id": "iy", "src": "y", "dst": "y", "identity": True},
            {"id": "f", "src": "x", "dst": "y"},
        ],
        "composition": [],
    }


def _with(**changes):
    raw = _chain_raw()
    raw.update(changes)
    return raw


def _without(key):
    raw = _chain_raw()
    del raw["morphisms"][2][key]
    return raw


def _flagged(identity):
    raw = _chain_raw()
    raw["morphisms"][2]["identity"] = identity
    return raw


# name -> (category JSON, a fragment of the violation it must report)
HOSTILE_CATEGORIES = {
    "top_level_number": (5, "must be a JSON object"),
    "top_level_list": ([1, 2], "must be a JSON object"),
    "record_not_object": (_with(morphisms=_chain_raw()["morphisms"] + ["g"]),
                          "morphism record 3 is not an object"),
    "record_without_id": (_without("id"), "lacks keys ['id']"),
    "record_without_src": (_without("src"), "lacks keys ['src']"),
    "record_without_dst": (_without("dst"), "lacks keys ['dst']"),
    "composition_pair": (_with(composition=[["f", "ix"]]), "entry 0 is not a triple"),
    "composition_string": (_with(composition=["f∘ix=f"]), "entry 0 is not a triple"),
    "composition_unhashable_name": (_with(composition=[["f", ["ix"], "f"]]),
                                    "unknown morphism in ('f', ['ix'], 'f')"),
    "no_objects": ({}, "needs at least one object"),
    "section_not_list": (_with(morphisms={"id": "f"}), "'morphisms' must be a list, not dict"),
    "identity_string": (_flagged("false"), "BadIdentityFlag: morphism 'f' has identity 'false'"),
    "identity_float": (_flagged(2.5), "BadIdentityFlag: morphism 'f' has identity 2.5"),
}


def matrix_raw():
    """The matrix export (as `matrix` writes it, less "mstar_dims") of the
    algebra of the category x -> y: basis ix, iy, f, with f.ix = iy.f = f."""
    return {"basis": ["ix", "iy", "f"], "unit": [1, 1, 0],
            "table": [[0, 0, [[0, 1]]], [1, 1, [[1, 1]]], [2, 0, [[2, 1]]], [1, 2, [[2, 1]]]]}


def _matrix_with(entry=None, **changes):
    raw = matrix_raw()
    raw.update(changes)
    if entry is not None:
        raw["table"] = raw["table"] + [entry]
    return raw


def _matrix_without(key):
    raw = matrix_raw()
    del raw[key]
    return raw


# name -> (matrix export, a fragment of the AlgebraError it must raise in
# characteristic 3)
HOSTILE_MATRICES = {
    "top_level_list": ([1, 2], "must be a JSON object"),
    "missing_table": (_matrix_without("table"), "missing keys: ['table']"),
    "basis_not_list": (_matrix_with(basis=5), "'basis' must be a list"),
    "short_entry": (_matrix_with([2, 2]), "table entry 4 is not"),
    "short_pair": (_matrix_with([2, 2, [[2]]]), "table entry 4 is not"),
    "pairs_not_list": (_matrix_with([2, 2, 5]), "table entry 4 is not"),
    "index_out_of_range": (_matrix_with([3, 0, [[0, 1]]]), "index 3 is not an int in [0, 3)"),
    "index_too_large": (_matrix_with([0, 10 ** 30, [[0, 1]]]), "is not an int in [0, 3)"),
    "negative_index": (_matrix_with([-1, 0, [[0, 1]]]), "index -1 is not an int"),
    "bool_index": (_matrix_with([2, True, [[2, 1]]]), "index True is not an int"),
    "str_index": (_matrix_with(["2", 2, [[2, 1]]]), "index '2' is not an int"),
    "list_result_index": (_matrix_with([2, 2, [[[2], 1]]]), "index [2] is not an int"),
    "repeated_product": (_matrix_with([0, 0, [[0, 2]]]), "repeats the product (0, 0)"),
    "word_scalar": (_matrix_with([2, 2, [[2, "x"]]]), "bad scalar: 'x'"),
    "three_part_scalar": (_matrix_with(unit=["1/2/3", 1, 0]), "bad scalar: '1/2/3'"),
    "zero_denominator": (_matrix_with([2, 2, [[2, "1/0"]]]), "bad scalar: '1/0'"),
    "denominator_not_invertible": (_matrix_with(unit=["1/3", 1, 0]), "not invertible mod 3"),
}
