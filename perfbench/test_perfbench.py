"""The benchmark's own tests:  python3 -m pytest perfbench"""

import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import catalog  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    return tmp_path


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload_passes_its_checks(workload):
    clock = calibrate.Calibrator()
    clock.start()
    try:
        items, passes, setups, _ = run.measure(workload, 0, 0, tiny=True, clock=clock)
    finally:
        clock.stop()
    assert len(passes) == 1 and len(setups) == run.MIN_SETUPS
    assert passes[0]["cal_wall"] > 0 and min(setups) > 0
    assert items and passes[0]["problems"] == {}
    assert all(item.expect for item in items)


@pytest.mark.parametrize("workload", ["corpus", "oracle_q", "classify_large"])
def test_tiny_traced_run_gives_every_layer_metric(workload):
    _, passes, _, spans = run.measure(workload, 0, 0, tracer.Tracer(), tiny=True)
    assert [p["traced"] for p in passes] == [False, True]
    assert all(not p["problems"] for p in passes)
    assert spans and all(s[3] < i for i, s in enumerate(spans))
    metrics = run.layer_metrics(passes)
    assert set(metrics) == {m.name for m in catalog.PER_LAYER}
    assert metrics["trace.spans"] > 0 and metrics["cli.self_s"] > 0


def test_tracer_restores_every_binding():
    run.fresh_import()
    import eicat
    import eicat.cli
    before = (eicat.classify, eicat.cli.classify, eicat.linalg.Matrix.mul_vec,
              eicat.linalg.Matrix.zeros)
    t = tracer.Tracer()
    t.install()
    assert eicat.classify is eicat.cli.classify is sys.modules["eicat.classify"].classify
    assert eicat.classify is not before[0]
    t.uninstall()
    after = (eicat.classify, eicat.cli.classify, eicat.linalg.Matrix.mul_vec,
             eicat.linalg.Matrix.zeros)
    assert after == before


def test_traced_counts_repeat_exactly():
    _, passes, _, _ = run.measure("oracle_q", 0, 0, tracer.Tracer(), tiny=True)
    _, passes2, _, _ = run.measure("oracle_q", 0, 0, tracer.Tracer(), tiny=True)
    a = run.layer_metrics(passes)
    b = run.layer_metrics(passes2)
    exact = [m.name for m in catalog.PER_LAYER if m.unit != "s"]
    assert {k: a[k] for k in exact} == {k: b[k] for k in exact}
    assert a["linalg.mul_vec_calls"] > 0 and 0 < a["linalg.mul_vec_density"] <= 1
    # projective_resolution also goes by the alias free_resolution
    assert a["homology.resolution_calls_per_pair"] > 0 and a["homology.resolution_rank_sum"] > 0


def _span(name, t0, t1, parent):
    return (name, t0, t1, parent, "x@0")


def test_self_times_subtract_direct_children_only():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("classify.classify", 1.0, 6.0, 0),
        _span("category.validate", 2.0, 3.0, 1),
        _span("freeness.is_free", 3.5, 5.5, 1),
        _span("freeness.is_unfactorizable", 4.0, 4.5, 3),
        _span("homology.ext_dims_from_trace", 7.0, 9.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 0.5, 2.0])
    hooks = {0: 0.25, 3: 0.5}
    assert tracer.self_times(spans, hooks) == pytest.approx([2.75, 2.0, 1.0, 1.0, 0.5, 2.0])


def test_function_times_fold_unnamed_same_layer_helpers_into_caller():
    spans = [
        _span("algebra.primitive_idempotents", 0.0, 10.0, -1),
        _span("algebra.radical", 1.0, 4.0, 0),       # named: keeps its own time
        _span("algebra.quotient_module", 5.0, 7.0, 0),  # unnamed: folds into caller
        _span("linalg.Matrix.rref", 5.5, 6.0, 2),    # other layer: its own owner
        _span("algebra.submodule", 8.0, 9.0, -1),     # unnamed root: its own owner
    ]
    selfs = tracer.self_times(spans)
    named = {"algebra.primitive_idempotents", "algebra.radical"}
    got = tracer.function_times(spans, selfs, named)
    assert got["algebra.primitive_idempotents"] == pytest.approx(5.0 + 1.5)
    assert got["algebra.radical"] == pytest.approx(3.0)
    assert got["linalg.Matrix.rref"] == pytest.approx(0.5)
    assert got["algebra.submodule"] == pytest.approx(1.0)
    assert "algebra.quotient_module" not in got
    assert sum(got.values()) == pytest.approx(sum(selfs))


def _chain_item():
    inst = workloads.Instance("chain_3", None, "chain", True)
    return workloads.Item("chain_3", 0, ("classify", "oracle"), "in.json",
                          workloads.expectations(inst, 0, ("classify", "oracle")))


GOOD_CLASSIFY = json.dumps({"free": True, "gorenstein": True, "hereditary": True})
GOOD_ORACLE = json.dumps({"left": 1, "right": 1, "gldim": 1, "cap": 8, "agrees": True})


def test_checker_accepts_correct_verdicts():
    item = _chain_item()
    assert check.check_item(item, [("classify", 0, GOOD_CLASSIFY),
                                   ("oracle", 0, GOOD_ORACLE)]) == []


def test_checker_rejects_tampered_verdict():
    item = _chain_item()
    tampered = json.dumps({"left": 1, "right": 1, "gldim": 2, "cap": 8, "agrees": True})
    problems = check.check_item(item, [("classify", 0, GOOD_CLASSIFY), ("oracle", 0, tampered)])
    assert problems == ["oracle: gldim = 2, expected 1"]
    disagree = json.dumps({"left": 1, "right": 1, "gldim": 1, "cap": 8, "agrees": False})
    assert check.check_item(item, [("classify", 0, GOOD_CLASSIFY), ("oracle", 0, disagree)])


def test_checker_rejects_nonzero_exit_and_bool_for_int():
    item = _chain_item()
    problems = check.check_item(item, [("classify", 1, ""), ("oracle", 0, GOOD_ORACLE)])
    assert problems == ["classify: exit 1"]
    as_bool = json.dumps({"left": True, "right": 1, "gldim": 1, "cap": 8, "agrees": True})
    assert check.check_item(item, [("classify", 0, GOOD_CLASSIFY), ("oracle", 0, as_bool)])


def test_transporter_oracle_needs_finite_dimensions():
    inst = workloads.Instance("s3", None, "transporter")
    item = workloads.Item("s3", 2, ("oracle",), "in.json",
                          workloads.expectations(inst, 2, ("oracle",)))
    cap = json.dumps({"left": ">8", "right": 2, "gldim": ">8", "cap": 8, "agrees": True})
    assert check.check_item(item, [("oracle", 0, cap)]) == ["oracle: left = '>8', expected 'finite'"]


def test_corpus_goldens_are_expected():
    inst = workloads.Instance("group_z2", None, "other")
    exp = workloads.expectations(inst, 2, ("oracle",))
    assert ("oracle", "gldim", ">8") in exp and ("oracle", "left", 0) in exp
    assert ("oracle", "gldim", ">8") not in workloads.expectations(inst, 0, ("oracle",))


def _inputs(workdir, workload, seed):
    items = workloads.build(workload, seed, workdir / f"{workload}-{seed}", tiny=True)
    return [(item.key, Path(item.path).read_text()) for item in items]


def test_inputs_come_from_the_seed(workdir):
    assert _inputs(workdir, "classify_large", 3) == _inputs(workdir, "classify_large", 3)
    assert _inputs(workdir, "classify_large", 3) != _inputs(workdir, "classify_large", 4)


def test_relabel_keeps_the_category():
    run.fresh_import()
    from eicat.category import category_to_json, validate
    from eicat.families import diamond_transporter_category
    c = diamond_transporter_category()
    r = validate(workloads.relabel(category_to_json(c), random.Random(1)))
    assert len(r) == len(c) and len(r.objects) == len(c.objects)
    assert sorted(len(r.hom(x, y)) for x in r.objects for y in r.objects) == \
        sorted(len(c.hom(x, y)) for x in c.objects for y in c.objects)


def test_benchmark_json_matches_catalog():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == list(catalog.WORKLOADS.values())
    assert spec["end_to_end"] == [{"name": m.name, "unit": m.unit, "better": m.better,
                                   "bound": m.bound} for m in catalog.END_TO_END]
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better}
                                 for m in catalog.PER_LAYER]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_calibrated_seconds():
    clock = calibrate.Calibrator()
    n = calibrate.NOMINAL_S
    # chunks of 2x and 4x the nominal time at t = 1.0 and 2.0
    clock.starts, clock.ends = [1.0, 2.0], [1.0 + 2 * n, 2.0 + 4 * n]
    # a span holding both: its wall time less the chunks, at the mean speed
    work = 3.0 - 6 * n
    assert clock.seconds(0.5, 3.5) == pytest.approx(work * (1 / 2 + 1 / 4) / 2)
    # a span between them holds none: the nearest chunk on each side
    assert clock.seconds(1.5, 1.6) == pytest.approx(0.1 * (1 / 2 + 1 / 4) / 2)
    # after the last chunk: only the one before
    assert clock.seconds(2.5, 2.6) == pytest.approx(0.1 / 4)


def test_calibrator_samples_and_stops():
    clock = calibrate.Calibrator(interval=0.002)
    clock.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        t1 = time.perf_counter()
    finally:
        clock.stop()
    assert len(clock.starts) >= 5 and clock.seconds(t0, t1) > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
