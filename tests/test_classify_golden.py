"""The full `classify --char ch --explain` output, key order and list order
included, against a checked-in golden.

Regenerate the golden (only when a change of output is intended) with
    PYTHONPATH=src python tests/test_classify_golden.py
"""

import json
import os
import tempfile

import pytest
from inputs import boolean_poset, s3_transporter

from eicat.category import category_to_json
from eicat.cli import main
from eicat.families import (
    chain_poset,
    diamond_poset,
    poset_category,
    stabilized_alpha_category,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_classify_explain.json")

CASES = {  # name -> (builder, characteristics)
    "chain_6": (lambda: poset_category(chain_poset(6)), (0,)),
    "diamond": (lambda: poset_category(diamond_poset()), (0,)),
    "boolean_3": (lambda: poset_category(boolean_poset(3)), (0,)),
    "s3_subsets_le2": (lambda: s3_transporter(2), (0, 2, 3)),
    "stabilized_alpha": (stabilized_alpha_category, (2,)),
}

KEYS = [f"{name}@{ch}" for name, (_, chars) in CASES.items() for ch in chars]


def classify_text(name, ch, workdir):
    """The text `classify --explain` writes for one case."""
    src = os.path.join(workdir, f"{name}.json")
    out = os.path.join(workdir, f"{name}@{ch}.out.json")
    with open(src, "w") as fh:
        json.dump(category_to_json(CASES[name][0]()), fh)
    assert main(["classify", src, "--char", str(ch), "--explain", "--out", out]) == 0
    with open(out) as fh:
        return fh.read()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert list(golden) == KEYS


@pytest.mark.parametrize("key", KEYS)
def test_classify_explain_matches_golden(key, golden, tmp_path):
    name, ch = key.rsplit("@", 1)
    text = classify_text(name, int(ch), str(tmp_path))
    # compare serialized forms so that key order counts too
    assert text == json.dumps(golden[key], indent=2) + "\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        data = {}
        for key in KEYS:
            name, ch = key.rsplit("@", 1)
            data[key] = json.loads(classify_text(name, int(ch), d))
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
