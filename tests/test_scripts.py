"""The scripts find the package from their own location, so they run from
any working directory."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _named_goldens_output(lines):
    assert len(lines) == 6
    assert lines[0].startswith("chain_a3 / char 0") and "gorenstein=True" in lines[0]


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
