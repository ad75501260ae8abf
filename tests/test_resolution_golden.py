"""The left and right top resolutions through degree cap + 2, as the oracle
computes them, pinned by a sha256 per (instance, char, side) over `gens`,
`kernel_dims`, `repeat`, `finished`, `degree_reached` and each cover's int
view (per column its nonzero entries, as values), against a checked-in
golden.  Tier 1 covers corpus(0) × chars 0/2/3/5 and the S3 <= 2 skeleton
and dim-114 export × chars 0/2/3; the slow test covers corpus seeds 1-3.

Regenerate the golden (only when a change of resolution is intended) with
    PYTHONPATH=src python tests/test_resolution_golden.py
"""

import hashlib
import json
import os
from fractions import Fraction

import pytest
from conftest import CAP, CHARACTERISTICS
from inputs import s3_transporter

from eicat.algebra import algebra_from_category, opposite, top_module
from eicat.category import presentation_of
from eicat.families import corpus
from eicat.homology import projective_resolution
from eicat.linalg import Field

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_resolutions.json")


def _algebras(group):
    """(name, algebra) of a golden group: a corpus seed, or "s3"."""
    if group == "s3":
        for p in (0, 2, 3):
            yield f"s3_le2@{p}", algebra_from_category(
                presentation_of(s3_transporter(2)).category, Field(p))
            yield f"s3_le2_export@{p}", algebra_from_category(s3_transporter(2), Field(p))
        return
    items = corpus(int(group))
    for p in CHARACTERISTICS:
        for name, c in items:
            yield f"{name}@{p}", algebra_from_category(presentation_of(c).category, Field(p))


def _cover(cover, p):
    """A cover's shape and, per column of its int view, the sorted (row,
    value) of its nonzero entries: values mod p, or Fractions as strings."""
    columns, scale = cover._sparse_view()
    return [cover.rows, cover.cols,
            [sorted((r, x % p if p else str(Fraction(x, scale))) for r, x in col)
             for col in columns]]


def digests(group):
    """"name@char:side" -> the sha256 of that side's top resolution."""
    out = {}
    for label, a in _algebras(group):
        p = a.field.characteristic
        for side, b in (("left", a), ("right", opposite(a))):
            tr = projective_resolution(b, top_module(b), CAP + 2)
            fields = [tr.gens, tr.kernel_dims, tr.repeat, tr.finished, tr.degree_reached,
                      [_cover(c, p) for c in tr.covers]]
            out[f"{label}:{side}"] = hashlib.sha256(json.dumps(fields).encode()).hexdigest()
    return out


def _check(group):
    with open(GOLDEN) as fh:
        golden = json.load(fh)[group]
    got = digests(group)
    assert list(got) == list(golden)
    assert [k for k, v in got.items() if v != golden[k]] == []


@pytest.mark.parametrize("group", ["0", "s3"])
def test_top_resolutions_match_golden(group):
    _check(group)


@pytest.mark.slow
@pytest.mark.parametrize("group", ["1", "2", "3"])
def test_top_resolutions_on_more_corpus_seeds_match_golden(group):
    _check(group)


if __name__ == "__main__":
    data = {group: digests(group) for group in ("0", "s3", "1", "2", "3")}
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
