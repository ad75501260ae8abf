import gc
import importlib
import json
import time

import pytest
from inputs import HOSTILE_CATEGORIES, HOSTILE_MATRICES, matrix_raw

from eicat import cli
from eicat.category import category_to_json
from eicat.cli import main
from eicat.families import chain_poset, diamond_poset, poset_category, stabilized_alpha_category


def write_category(tmp_path, c, name="cat.json"):
    path = tmp_path / name
    path.write_text(json.dumps(category_to_json(c)))
    return str(path)


@pytest.fixture()
def chain_file(tmp_path):
    return write_category(tmp_path, poset_category(chain_poset(3)))


@pytest.fixture()
def diamond_file(tmp_path):
    return write_category(tmp_path, poset_category(diamond_poset()))


def test_validate_ok(chain_file, capsys):
    assert main(["validate", chain_file]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_rejects_non_ei(tmp_path, capsys):
    raw = {
        "objects": ["x"],
        "morphisms": [
            {"id": "e", "src": "x", "dst": "x", "identity": True},
            {"id": "t", "src": "x", "dst": "x"},
        ],
        "composition": [["t", "t", "t"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 1
    assert "NotEI" in capsys.readouterr().out


def test_malformed_json_is_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("case", HOSTILE_CATEGORIES)
def test_malformed_category_is_domain_error(case, tmp_path, capsys):
    raw, fragment = HOSTILE_CATEGORIES[case]
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(raw))
    for command in ("validate", "classify"):
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValidationError: ") and fragment in err
        assert "Traceback" not in err


@pytest.mark.parametrize("case", HOSTILE_MATRICES)
def test_malformed_matrix_export_is_domain_error(case, tmp_path, capsys):
    raw, fragment = HOSTILE_MATRICES[case]
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(raw if isinstance(raw, list) else raw | {"mstar_dims": {}}))
    assert main(["oracle", str(path), "--char", "3"]) == 1
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err


def test_matrix_export_is_refused_by_size_before_it_is_built(tmp_path, monkeypatch, capsys):
    """A d x d table is allocated only for d within --limit."""
    def refuse(*args):
        raise AssertionError("from_json called")

    monkeypatch.setattr(cli.FiniteDimAlgebra, "from_json", refuse)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"basis": list(range(65)), "unit": [1] * 65, "table": []}))
    assert main(["oracle", str(path)]) == 1
    assert "dimension 65 exceeds limit 64" in capsys.readouterr().err


def test_consecutive_calls_share_no_state(chain_file, capsys):
    assert main(["oracle", chain_file, "--cap", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["cap"] == 2
    assert main(["oracle", chain_file]) == 0
    assert json.loads(capsys.readouterr().out)["cap"] == 8
    assert main(["classify", chain_file, "--explain"]) == 0
    assert "explain" in json.loads(capsys.readouterr().out)
    assert main(["classify", chain_file]) == 0
    assert "explain" not in json.loads(capsys.readouterr().out)
    assert main(["classify", chain_file, "--char", "x"]) == 2
    assert main(["validate", chain_file]) == 0
    assert cli._parser() is cli._parser()


def test_classify_explain_builds_presentation_and_factorizations_once(
        tmp_path, monkeypatch, capsys):
    calls = {"presentation_of": 0, "factorizations": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    category = importlib.import_module("eicat.category")
    presentation_of = counted("presentation_of", category.presentation_of)
    for module in ("eicat.classify", "eicat.cli"):
        monkeypatch.setattr(importlib.import_module(module), "presentation_of", presentation_of)
    monkeypatch.setattr(category, "factorizations",
                        counted("factorizations", category.factorizations))
    path = write_category(tmp_path, poset_category(diamond_poset()))
    assert main(["classify", path, "--explain"]) == 0
    assert json.loads(capsys.readouterr().out)["explain"]["unfactorizables"]
    assert calls == {"presentation_of": 1, "factorizations": 1}


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2
    assert main(["no-such-command"]) == 2


def test_classify_output_schema(chain_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["classify", chain_file, "--char", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["characteristic"] == 2
    assert report["hereditary"] is True
    assert report["gorenstein_dim_bound"] == 1
    assert "explain" not in report


def test_classify_explain_includes_ledger(diamond_file, capsys):
    assert main(["classify", diamond_file, "--explain"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["free"] is False
    ledger = report["explain"]["mstar_ledger"]
    assert ledger["3"] == {"cover_dim": 4, "dim": 3, "projective": False}


def test_freeness_output(diamond_file, capsys):
    assert main(["freeness", diamond_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["free"] is False
    assert rep["counterexample"]["morphism"] == "x_to_w"
    assert all(len(v) > 0 for v in rep["unfactorizables"].values())


def test_projectivity_depends_on_characteristic(tmp_path, capsys):
    path = write_category(tmp_path, stabilized_alpha_category())
    assert main(["projectivity", path, "--char", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["projective_over_k"] is False
    assert rep["witnesses"][0]["morphism"] == "alpha"
    assert rep["witnesses"][0]["stabilizers"] == {"left": 1, "right": 2}
    assert main(["projectivity", path, "--char", "3"]) == 0
    rep3 = json.loads(capsys.readouterr().out)
    assert rep3["projective_over_k"] is True and rep3["witnesses"] == []


def test_matrix_then_oracle_roundtrip(chain_file, tmp_path, capsys):
    mat = tmp_path / "alg.json"
    assert main(["matrix", chain_file, "--char", "0", "--out", str(mat)]) == 0
    obj = json.loads(mat.read_text())
    assert "basis" in obj and "mstar_dims" in obj
    assert obj["mstar_dims"]["2"] == {"dim": 2, "cover_dim": 2}
    # feed the structure constants back to the oracle
    assert main(["oracle", str(mat), "--char", "0"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict == {"left": 1, "right": 1, "gldim": 1, "cap": 8}
    assert "agrees" not in verdict


def test_oracle_on_category_reports_agreement(diamond_file, capsys):
    assert main(["oracle", diamond_file, "--char", "5"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["left"] == 2 and verdict["right"] == 2 and verdict["gldim"] == 2
    assert verdict["agrees"] is True


def test_oracle_cap_semantics(tmp_path, capsys):
    path = write_category(tmp_path, stabilized_alpha_category())
    assert main(["oracle", path, "--char", "2", "--cap", "4"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["left"] == ">4" and verdict["cap"] == 4
    assert verdict["agrees"] is True


@pytest.mark.parametrize("cap, agrees, left", [(1, None, ">1"), (2, True, 2), (3, True, 2)])
def test_oracle_agreement_is_unknown_when_a_gorenstein_verdict_hits_the_cap(
        diamond_file, capsys, cap, agrees, left):
    # the diamond algebra is Gorenstein with id = 2 on both sides; the oracle
    # reads Ext through cap + 1, so it proves id = 2 from cap 2 on (Ext^3 = 0)
    # and id > 1 at cap 1 (Ext^2 != 0)
    assert main(["oracle", diamond_file, "--cap", str(cap)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["agrees"] is agrees
    assert verdict["left"] == verdict["right"] == left


@pytest.mark.parametrize("export", [False, True])
def test_oracle_leaves_no_algebra_to_the_cycle_collector(tmp_path, capsys, export):
    """An oracle call frees its algebras, their opposites and all they
    memoised by reference counting: a collection right after it finds none
    of them among the garbage."""
    path = write_category(tmp_path, stabilized_alpha_category())
    if export:
        assert main(["matrix", path, "--char", "2", "--out", str(tmp_path / "m.json")]) == 0
        path = str(tmp_path / "m.json")
    gc.collect()
    assert main(["oracle", path, "--char", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["left"] == ">8"
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        kinds = {type(x).__name__ for x in gc.garbage}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert not kinds & {"FiniteDimAlgebra", "ModuleRep", "Matrix"}


def test_oracle_builds_one_presentation_and_one_top_module_per_side(
        diamond_file, monkeypatch, capsys):
    algebra = importlib.import_module("eicat.algebra")
    category = importlib.import_module("eicat.category")
    presentation_of, quotient_module = category.presentation_of, algebra.quotient_module
    presentations, tops = [], []

    def counted_presentation_of(c):
        presentations.append(c)
        return presentation_of(c)

    def counted_quotient_module(m, vectors):  # top_module's one quotient A / rad A
        tops.append(m.algebra)
        return quotient_module(m, vectors)

    for module in ("eicat.classify", "eicat.cli"):
        monkeypatch.setattr(importlib.import_module(module), "presentation_of",
                            counted_presentation_of)
    monkeypatch.setattr(algebra, "quotient_module", counted_quotient_module)
    assert main(["oracle", diamond_file, "--char", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["agrees"] is True
    assert len(presentations) == 1
    assert len(tops) == 2 and tops[0] is not tops[1]


def test_sweep_keys_items_then_characteristics():
    items = [("chain", poset_category(chain_poset(3))), ("diamond", poset_category(diamond_poset()))]
    results = cli.sweep(items, (3, 0), 4)
    assert list(results) == [("chain", 3), ("chain", 0), ("diamond", 3), ("diamond", 0)]
    for (name, ch), r in results.items():
        assert r.algebra.field.characteristic == r.report.characteristic == ch
        assert r.algebra.basis == list(r.report.presentation.category.morphisms)
        assert r.agrees is True
    assert results[("diamond", 0)].verdict.left == 2
    assert results[("chain", 3)].gldim == 1


def test_oracle_dimension_limit(chain_file, capsys):
    assert main(["oracle", chain_file, "--limit", "3"]) == 1


def test_bad_characteristic_is_usage_error(chain_file):
    assert main(["classify", chain_file, "--char", "4"]) == 2


def test_large_characteristic_is_decided_quickly(chain_file, capsys):
    t0 = time.perf_counter()
    assert main(["classify", chain_file, "--char", str(2 ** 61 - 1)]) == 0
    assert time.perf_counter() - t0 < 1
    assert json.loads(capsys.readouterr().out)["characteristic"] == 2 ** 61 - 1
    t0 = time.perf_counter()
    assert main(["classify", chain_file, "--char", str((2 ** 31 - 1) * (2 ** 61 - 1))]) == 2
    assert time.perf_counter() - t0 < 1
    assert "below" in capsys.readouterr().err


def test_oracle_in_a_large_prime_field_is_quick(tmp_path, capsys):
    """Idempotents split by polynomial roots in F_p, found without a scan of F_p."""
    path = tmp_path / "z3.json"
    assert main(["gen", "group", "z3", "--out", str(path)]) == 0
    t0 = time.perf_counter()
    assert main(["oracle", str(path), "--char", "1000000007"]) == 0
    assert time.perf_counter() - t0 < 2
    assert json.loads(capsys.readouterr().out)["agrees"] is True


@pytest.mark.parametrize("flag", ["--cap", "--limit"])
def test_oracle_rejects_negative_cap_and_limit(chain_file, flag, capsys):
    assert main(["oracle", chain_file, flag, "-1"]) == 2
    err = capsys.readouterr().err
    assert f"{flag} must be >= 0" in err and "Traceback" not in err


@pytest.mark.parametrize("scalar", [1.0, 0.5])
def test_oracle_rejects_float_scalars_in_matrix_export(chain_file, tmp_path, capsys, scalar):
    mat = tmp_path / "alg.json"
    assert main(["matrix", chain_file, "--out", str(mat)]) == 0
    obj = json.loads(mat.read_text())
    obj["unit"][obj["unit"].index(1)] = scalar
    mat.write_text(json.dumps(obj))
    assert main(["oracle", str(mat)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("AlgebraError: bad scalar") and "Traceback" not in err


def test_gen_named_poset_matches_library(capsys):
    assert main(["gen", "poset", "diamond"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == category_to_json(poset_category(diamond_poset()))


def test_gen_group_and_biset(capsys):
    assert main(["gen", "group", "s3"]) == 0
    assert len(json.loads(capsys.readouterr().out)["morphisms"]) == 6
    assert main(["gen", "biset", "regular_orbit"]) == 0
    assert len(json.loads(capsys.readouterr().out)["morphisms"]) == 5
    assert main(["gen", "biset", "nope"]) == 2


def test_gen_corpus_writes_deterministic_files(tmp_path, capsys):
    d1 = tmp_path / "c1"
    d2 = tmp_path / "c2"
    assert main(["gen", "corpus", "--out", str(d1), "--seed", "0", "--count", "5"]) == 0
    assert main(["gen", "corpus", "--out", str(d2), "--seed", "0", "--count", "5"]) == 0
    files1 = sorted(p.name for p in d1.iterdir())
    files2 = sorted(p.name for p in d2.iterdir())
    assert files1 == files2 and len(files1) == 5
    for name in files1:
        assert (d1 / name).read_text() == (d2 / name).read_text()
    # generated files are themselves valid inputs
    assert main(["validate", str(d1 / files1[0])]) == 0


def test_gen_corpus_rejects_negative_count(tmp_path, capsys):
    out = tmp_path / "c"
    assert main(["gen", "corpus", "--out", str(out), "--count", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--count must be >= 0" in err and "Traceback" not in err
    assert not out.exists()
