"""The scripts find the package from their own location, so they run from
any working directory."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


# the row of tests/golden_oracle.json that each line of named_goldens.py
# reproduces; F2[Z/2] is the algebra of the one-object category group_z2
NAMED_GOLDENS = [("chain_a3 / char 0", "chain_a3@0"), ("diamond / char 0", "diamond@0"),
                 ("F2[Z/2]", "group_z2@2"), ("regular_orbit / char 2", "regular_orbit@2"),
                 ("stabilized_alpha / char 2", "stabilized_alpha@2"),
                 ("stabilized_alpha / char 3", "stabilized_alpha@3")]


def _named_goldens_output(lines):
    """Each line gives the verdicts of its row of the oracle goldens: id on
    each side, gldim, and Gorenstein exactly when both ids are finite."""
    golden = json.loads((SCRIPTS.parent / "tests" / "golden_oracle.json").read_text())
    assert len(lines) == len(NAMED_GOLDENS)
    for line, (label, key) in zip(lines, NAMED_GOLDENS):
        assert line.startswith(label + " "), line
        fields = dict(re.findall(r"(\w+)=\s*(\S+)", line[len(label):]))
        row = golden[key]
        assert fields["id_left"] == str(row["left"]), line
        assert fields["id_right"] == str(row["right"]), line
        assert fields["gldim"] == str(row["gldim"]), line
        gorenstein = isinstance(row["left"], int) and isinstance(row["right"], int)
        assert fields["gorenstein"] == str(gorenstein), line


def _corpus_output(lines):
    assert lines[-1].endswith("; 0 disagreement(s)")


@pytest.mark.parametrize("script, args, check", [
    ("named_goldens.py", [], _named_goldens_output),
    ("run_corpus.py", ["--chars", "2"], _corpus_output),
], ids=["named_goldens", "run_corpus"])
def test_script_runs_outside_the_repository(tmp_path, script, args, check):
    run = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    check(run.stdout.splitlines())


@pytest.mark.parametrize("args, message", [
    (["--cap", "-1"], "argument --cap: the cap must be >= 0, got -1"),
    (["--cap", "x"], "argument --cap: invalid cap value: 'x'"),
    (["--chars", "0,x"], "argument --chars: 'x' is not 0 or a prime"),
    (["--chars", "4"], "argument --chars: '4' is not 0 or a prime"),
    (["--chars", "2,,3"], "argument --chars: '' is not 0 or a prime"),
], ids=["negative_cap", "cap_not_int", "char_not_int", "char_not_prime", "char_empty"])
def test_run_corpus_refuses_bad_arguments(tmp_path, args, message):
    """A negative cap or a characteristic that is not 0 or a prime is
    refused before any sweep: exit 2, no traceback, and the error on one
    line after the usage."""
    run = subprocess.run([sys.executable, str(SCRIPTS / "run_corpus.py"), *args],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stdout == ""
    lines = run.stderr.splitlines()
    assert lines[0].startswith("usage: run_corpus.py")
    assert lines[1:] == [f"run_corpus.py: error: {message}"]
