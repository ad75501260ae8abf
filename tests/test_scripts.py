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
