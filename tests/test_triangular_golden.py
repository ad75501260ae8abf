"""The triangular modules of every corpus(0) instance in characteristics
0/2/3, against a checked-in golden: for each M_t^* (over Gamma_t), i_t(R_t)
and j_t(D(R_t)) (over the whole algebra), the dimension of each slot (the
rank of the identity of x_i) and dim Ext^0..2(-, top).

Regenerate the golden (only when a change of module is intended) with
    PYTHONPATH=src python tests/test_triangular_golden.py
"""

import json
import os

from modules import build_i_t, build_j_t, build_m_star, dual_vertex_module, regular_module

from eicat.algebra import algebra_from_category, group_algebra, top_module
from eicat.homology import ext_dims
from eicat.linalg import Field

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_triangular.json")
CHARACTERISTICS = (0, 2, 3)


def slot_dims(p, rep):
    """The dimension of each slot of rep: the rank of the action of the
    identity of x_i, for each x_i in the category of rep's algebra."""
    index = {name: k for k, name in enumerate(rep.algebra.basis)}
    ids = [p.category.identity_of(x) for x in p.ordering]
    return [rep.action[index[i]].rank() for i in ids if i in index]


def regular_vertex_module(p, f, t):
    """R_t = k Aut(x_t) as a left module over itself (t is 1-based)."""
    return regular_module(group_algebra(p.aut_group(t - 1), f))


def _figures(p, rep, a):
    """The slots of rep and dim Ext^0..2(rep, top) over a, an algebra equal
    to rep's whose memo may serve other modules too."""
    return {"slots": slot_dims(p, rep), "ext": ext_dims(a, rep, top_module(a), 2)}


def rows(presentations):
    """"name@char" -> the figures of M_t^* (t = 1..n-1), i_t(R_t) and
    j_t(D(R_t)) (t = 1..n), in corpus order.  The modules over the whole
    algebra share one copy of it per row, so its radical and principal
    projectives are found once."""
    out = {}
    for name, _, p in presentations:
        for ch in CHARACTERISTICS:
            f = Field(ch)
            alg = algebra_from_category(p.category, f)
            out[f"{name}@{ch}"] = {
                "m_star": [_figures(p, m, m.algebra)
                           for m in (build_m_star(p, f, t) for t in range(1, p.n))],
                "i_t": [_figures(p, build_i_t(p, t, regular_vertex_module(p, f, t)), alg)
                        for t in range(1, p.n + 1)],
                "j_t": [_figures(p, build_j_t(p, t, dual_vertex_module(p, f, t)), alg)
                        for t in range(1, p.n + 1)]}
    return out


def test_triangular_modules_match_golden(presentations):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = rows(presentations)
    assert list(got) == list(golden)
    assert sum(len(v) for row in golden.values() for v in row.values()) == 669
    assert {k: v for k, v in got.items() if v != golden[k]} == {}


if __name__ == "__main__":
    from eicat.category import presentation_of
    from eicat.families import corpus

    data = rows([(name, c, presentation_of(c)) for name, c in corpus(0)])
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
