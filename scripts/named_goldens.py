#!/usr/bin/env python3
"""Print the homological verdicts for the hand-picked named instances.

These are the numbers frozen into the test suite (`tests/golden_oracle.json`,
checked line by line in `tests/test_scripts.py`); rerun this script after
touching the resolution or Ext code to confirm nothing drifted.  Each
algebra goes through the CLI's oracle pipeline (`cli._run_oracle`), which
validates it first."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from eicat.algebra import algebra_from_category, group_algebra
from eicat.category import presentation_of
from eicat.cli import _run_oracle
from eicat.families import (
    chain_poset,
    diamond_poset,
    poset_category,
    regular_orbit_category,
    stabilized_alpha_category,
)
from eicat.groups import cyclic_group
from eicat.linalg import Field

CAP = 8

CASES = [
    ("chain_a3 / char 0", lambda: algebra_from_category(
        presentation_of(poset_category(chain_poset(3))).category, Field(0))),
    ("diamond / char 0", lambda: algebra_from_category(
        presentation_of(poset_category(diamond_poset())).category, Field(0))),
    ("F2[Z/2]", lambda: group_algebra(cyclic_group(2), Field(2))),
    ("regular_orbit / char 2", lambda: algebra_from_category(
        presentation_of(regular_orbit_category()).category, Field(2))),
    ("stabilized_alpha / char 2", lambda: algebra_from_category(
        presentation_of(stabilized_alpha_category()).category, Field(2))),
    ("stabilized_alpha / char 3", lambda: algebra_from_category(
        presentation_of(stabilized_alpha_category()).category, Field(3))),
]


def main():
    for label, build in CASES:
        a = build()
        v, g = _run_oracle(a, CAP)
        print(f"{label:28s} dim={a.dim:2d}  id_left={v.left.value!s:3}  "
              f"id_right={v.right.value!s:3}  gldim={g.value!s:3}  "
              f"gorenstein={v.gorenstein}")


if __name__ == "__main__":
    main()
