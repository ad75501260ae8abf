"""The scripts find the package from their own location, so they run from
any working directory."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_named_goldens_runs_outside_the_repository(tmp_path):
    run = subprocess.run([sys.executable, str(SCRIPTS / "named_goldens.py")],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("chain_a3 / char 0") and "gorenstein=True" in lines[0]
