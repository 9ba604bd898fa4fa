"""One round of each perfbench workload, end to end: the benchmark still
drives the package through the functions it binds, and every step it runs
is correct. Its full report goes to the git-ignored `perfbench/out/`."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["shd-sparse-capped", "shd-sparse-live", "shd-dense-live"])
def test_one_round_is_correct(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", "0"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stdout
    assert result["failed"] == 0
