import os
import subprocess
import sys
from pathlib import Path

import pytest

import eicat
from eicat.category import NotEI, category_to_json, validate
from eicat.classify import classify, explain, gorenstein_bound
from eicat.families import (
    chain_poset,
    diamond_poset,
    diamond_transporter_category,
    group_category,
    poset_category,
    regular_orbit_category,
    stabilized_alpha_category,
)
from eicat.groups import cyclic_group
from eicat.linalg import Field


def test_chain_poset_is_hereditary_everywhere():
    c = poset_category(chain_poset(3))
    for ch in (0, 2, 5):
        r = classify(c, Field(ch))
        assert r.hereditary and r.one_gorenstein and r.gorenstein
        assert not r.zero_gorenstein
        assert r.free and r.projective_over_k
        assert r.gorenstein_dim_bound == 1


def test_diamond_is_gorenstein_but_not_one_gorenstein():
    r = classify(poset_category(diamond_poset()), Field(0))
    assert r.gorenstein and not r.free
    assert not r.one_gorenstein and not r.hereditary
    assert r.gorenstein_dim_bound == "n/a"
    alpha = r.freeness_counterexample[0]
    assert alpha == "x_to_w"


def test_group_category_is_zero_gorenstein():
    c = group_category(cyclic_group(2))
    r0 = classify(c, Field(0))
    assert r0.zero_gorenstein and r0.hereditary
    r2 = classify(c, Field(2))
    # still quasi-Frobenius in the modular case, but no longer hereditary
    assert r2.zero_gorenstein and r2.one_gorenstein and not r2.hereditary
    assert r2.gorenstein_dim_bound == 0


def test_regular_orbit_char2_one_gorenstein_not_hereditary():
    c = regular_orbit_category()
    r = classify(c, Field(2))
    assert r.projective_over_k and r.free
    assert r.one_gorenstein and not r.hereditary
    r3 = classify(c, Field(3))
    assert r3.hereditary


def test_stabilized_alpha_char2_not_gorenstein():
    c = stabilized_alpha_category()
    r = classify(c, Field(2))
    assert not r.projective_over_k and not r.gorenstein
    assert r.projectivity_witnesses == ["alpha"]
    r3 = classify(c, Field(3))
    assert r3.gorenstein and r3.hereditary


def test_diamond_transporter_is_not_free():
    r = classify(diamond_transporter_category(), Field(3))
    assert r.gorenstein and not r.free and not r.one_gorenstein


def test_classify_rejects_non_ei():
    raw = {
        "objects": ["x"],
        "morphisms": [
            {"id": "e", "src": "x", "dst": "x", "identity": True},
            {"id": "t", "src": "x", "dst": "x"},
        ],
        "composition": [["t", "t", "t"]],
    }
    with pytest.raises(NotEI):
        classify(validate(raw), Field(0))


def test_gorenstein_bound_goldens():
    assert gorenstein_bound([0, 0]) == 1
    assert gorenstein_bound([0, 1]) == 1
    assert gorenstein_bound([1, 0]) == 1
    assert gorenstein_bound([0, 0, 0]) == 1
    assert gorenstein_bound([2, 2]) == 3
    assert gorenstein_bound([0]) == 0
    with pytest.raises(ValueError):
        gorenstein_bound([])


def test_gorenstein_bound_never_exceeds_max_plus_one():
    import itertools
    for d in itertools.product(range(3), repeat=4):
        assert gorenstein_bound(list(d)) <= max(d) + 1


def test_report_implications_on_corpus(sweep):
    for (name, ch), entry in sweep.items():
        r = entry.report
        if r.hereditary:
            assert r.one_gorenstein, (name, ch)
        if r.one_gorenstein:
            assert r.gorenstein and r.free, (name, ch)
        if r.zero_gorenstein:
            assert r.one_gorenstein, (name, ch)
        if r.gorenstein and r.free:
            assert isinstance(r.gorenstein_dim_bound, int), (name, ch)


def test_classifier_matches_oracle_on_corpus(sweep):
    """Gorenstein per the classifier iff both one-sided self-injective
    dimensions are finite per the independent homological oracle."""
    for (name, ch), entry in sweep.items():
        r = entry.report
        v = entry.verdict
        assert r.gorenstein == v.gorenstein, (name, ch, v)
        if not r.gorenstein:
            assert not v.left.finite or not v.right.finite, (name, ch)


def test_one_gorenstein_bound_holds_in_oracle(sweep):
    for (name, ch), entry in sweep.items():
        r = entry.report
        v = entry.verdict
        if r.one_gorenstein:
            assert v.left.finite and v.left.value <= 1, (name, ch, v)
            assert v.right.finite and v.right.value <= 1, (name, ch, v)
        assert r.zero_gorenstein == (v.left == 0 and v.right == 0), (name, ch, v)


def test_hereditary_matches_global_dimension(sweep):
    for (name, ch), entry in sweep.items():
        r = entry.report
        g = entry.gldim
        assert r.hereditary == (g.finite and g.value <= 1), (name, ch, g)


def test_bound_dominates_oracle_dimension(sweep):
    for (name, ch), entry in sweep.items():
        r = entry.report
        v = entry.verdict
        if isinstance(r.gorenstein_dim_bound, int):
            assert v.left.finite and v.left.value <= r.gorenstein_dim_bound, (name, ch)


def test_classification_invariant_under_skeletalization():
    # add an object isomorphic to an existing one; verdicts must not change
    raw = {
        "objects": ["a", "b", "c"],
        "morphisms": [
            {"id": "ia", "src": "a", "dst": "a", "identity": True},
            {"id": "ib", "src": "b", "dst": "b", "identity": True},
            {"id": "ic", "src": "c", "dst": "c", "identity": True},
            {"id": "u", "src": "a", "dst": "b"},
            {"id": "v", "src": "b", "dst": "a"},
            {"id": "f", "src": "a", "dst": "c"},
            {"id": "g", "src": "b", "dst": "c"},
        ],
        "composition": [["v", "u", "ia"], ["u", "v", "ib"],
                        ["f", "v", "g"], ["g", "u", "f"]],
    }
    fat = validate(raw)
    thin = poset_category(chain_poset(2, ["a", "c"]))
    for ch in (0, 2):
        rf = classify(fat, Field(ch))
        rt = classify(thin, Field(ch))
        assert not rf.is_skeletal and rt.is_skeletal
        for key in ("free", "gorenstein", "one_gorenstein", "zero_gorenstein",
                    "hereditary", "gorenstein_dim_bound"):
            assert rf.to_json()[key] == rt.to_json()[key], (ch, key)


def test_report_json_keys_are_stable():
    r = classify(poset_category(chain_poset(2)), Field(2))
    assert list(r.to_json().keys()) == [
        "characteristic", "is_ei", "is_skeletal", "ordering",
        "projective_over_k", "projectivity_witnesses", "free",
        "freeness_counterexample", "gorenstein", "one_gorenstein",
        "zero_gorenstein", "hereditary", "gorenstein_dim_bound"]


def test_explain_contents():
    out = explain(poset_category(diamond_poset()), Field(0))
    cx = out["counterexample_decomposition"]
    assert cx["morphism"] == "x_to_w" and len(cx["chain"]) == 2
    ledger = out["mstar_ledger"]
    assert ledger["3"]["projective"] is False
    assert ledger["3"]["cover_dim"] == 4 and ledger["3"]["dim"] == 3
    assert ledger["1"]["projective"] and ledger["2"]["projective"]

    out2 = explain(stabilized_alpha_category(), Field(2))
    assert out2["stabilizer_orders"]["alpha"] == {"left": 1, "right": 2}
    assert out2["mstar_ledger"] == {}  # hypothesis fails, no ledger


_CORPUS_DIGEST = """
import hashlib, json
from eicat.classify import classify, explain
from eicat.families import corpus
from eicat.linalg import Field
rows = []
for name, c in corpus(0):
    for ch in (0, 2):
        report = classify(c, Field(ch))
        rows.append([name, ch, report.to_json(), explain(c, Field(ch), report=report)])
print(hashlib.sha256(json.dumps(rows).encode()).hexdigest())
"""


def test_classify_witnesses_do_not_depend_on_the_hash_seed():
    """In-process `classify` and `explain` of the corpus(0) categories in
    chars 0 and 2 give the same JSON, witnesses and list order included,
    under the string-hash seeds 0 and 4: `poset_category` builds its
    morphisms and compositions in element order, not in the order of a set
    of strings (the diamond's counterexample listed y1 or y2 first by
    seed)."""
    env = {**os.environ, "PYTHONPATH": str(Path(eicat.__file__).resolve().parents[1])}
    digests = []
    for seed in ("0", "4"):
        run = subprocess.run([sys.executable, "-c", _CORPUS_DIGEST],
                             env={**env, "PYTHONHASHSEED": seed},
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1], digests
