#!/usr/bin/env python3
"""Time the oracle's stages on a ladder of larger algebras, one JSON line per
row: the wall time of each stage in seconds (build, validate, radical,
idempotents, ideals, the left and the right side, gldim), their sum, the
oracle's share (the two sides and gldim), the dimension and the verdicts.

Rows (name@characteristic): chain_15/20/25@0, B_4/B_5@2 (the Boolean
lattices of subsets of {1..4} and {1..5}), and the S3 transporter on the
subsets of {1, 2, 3} of size <= 2 in chars 0/2/3, as its skeleton
(s3_le2) and as exported, not skeletal (s3_le2_export, dim 114).  Every row
takes well under a few seconds; the stages are memoised on the algebra,
so each is timed once, in the order above.

Usage: python3 scripts/ladder.py [--cap N] [--rows chain_15@0,B_4@2,...]

The Boolean lattice and the transporter are built by the test suite's
`tests/inputs.py`, which this script imports.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from inputs import boolean_poset, s3_transporter  # noqa: E402

from eicat.algebra import (  # noqa: E402
    _one_sided_ideals,
    algebra_from_category,
    primitive_idempotents,
    radical,
)
from eicat.category import presentation_of  # noqa: E402
from eicat.families import chain_poset, poset_category  # noqa: E402
from eicat.homology import global_dimension, injective_dimension  # noqa: E402
from eicat.linalg import Field  # noqa: E402

CATEGORIES = {
    "chain_15": lambda: presentation_of(poset_category(chain_poset(15))).category,
    "chain_20": lambda: presentation_of(poset_category(chain_poset(20))).category,
    "chain_25": lambda: presentation_of(poset_category(chain_poset(25))).category,
    "B_4": lambda: presentation_of(poset_category(boolean_poset(4))).category,
    "B_5": lambda: presentation_of(poset_category(boolean_poset(5))).category,
    "s3_le2": lambda: presentation_of(s3_transporter(2)).category,
    "s3_le2_export": lambda: s3_transporter(2),
}
ROWS = ["chain_15@0", "chain_20@0", "chain_25@0", "B_4@2", "B_5@2",
        *(f"{name}@{p}" for name in ("s3_le2", "s3_le2_export") for p in (0, 2, 3))]


def row(label, cap):
    """The JSON object of one row: per stage its wall time, then the sums
    and the verdicts."""
    name, p = label.split("@")
    times, clock = {}, time.perf_counter()

    def stage(key, fn):
        nonlocal clock
        value = fn()
        now = time.perf_counter()
        times[f"{key}_s"] = round(now - clock, 4)
        clock = now
        return value

    a = stage("build", lambda: algebra_from_category(CATEGORIES[name](), Field(int(p))))
    stage("validate", a.validate)
    stage("radical", lambda: radical(a))
    stage("idempotents", lambda: primitive_idempotents(a))
    stage("ideals", lambda: _one_sided_ideals(a))
    left = stage("left", lambda: injective_dimension(a, "left", cap))
    right = stage("right", lambda: injective_dimension(a, "right", cap))
    gldim = stage("gldim", lambda: global_dimension(a, cap))
    oracle = times["left_s"] + times["right_s"] + times["gldim_s"]
    return {"row": label, "dim": a.dim, **times, "total_s": round(sum(times.values()), 4),
            "oracle_s": round(oracle, 4), "left": left.to_json(), "right": right.to_json(),
            "gldim": gldim.to_json()}


def rows(text):
    """A comma-separated list of ladder rows."""
    out = text.split(",")
    for label in out:
        if label not in ROWS:
            raise argparse.ArgumentTypeError(f"{label!r} is not a ladder row: {', '.join(ROWS)}")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cap", type=int, default=8)
    ap.add_argument("--rows", type=rows, default=ROWS)
    args = ap.parse_args()
    for label in args.rows:
        print(json.dumps(row(label, args.cap)), flush=True)


if __name__ == "__main__":
    main()
