"""The oracle's left and right self-injective dimensions, global dimension
and agreement flag on every corpus(0) instance in characteristics 0/2/3/5,
against a checked-in golden.  Read from the shared `sweep` fixture, so no
extra oracle work is done.

Regenerate the golden (only when a change of verdict is intended) with
    PYTHONPATH=src python tests/test_oracle_golden.py
"""

import json
import os

from conftest import CAP, CHARACTERISTICS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_oracle.json")


def rows(sweep):
    """"name@char" -> the pinned oracle figures, in sweep order."""
    return {f"{name}@{ch}": {"left": e.verdict.left.to_json(),
                             "right": e.verdict.right.to_json(),
                             "gldim": e.gldim.to_json(),
                             "agrees": e.agrees}
            for (name, ch), e in sweep.items()}


def test_oracle_matches_golden(sweep):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = rows(sweep)
    assert list(got) == list(golden)
    assert {k: v for k, v in got.items() if v != golden[k]} == {}


if __name__ == "__main__":
    from eicat import cli
    from eicat.families import corpus

    data = rows(cli.sweep(corpus(0), CHARACTERISTICS, CAP))
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
