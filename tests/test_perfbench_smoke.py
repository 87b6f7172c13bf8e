"""The benchmark runs on this checkout: each workload at smoke size exits 0 with every check correct.

A change that breaks what ``perfbench/`` uses of the package (a module, a
function, a config field, an option) fails here, in the repository's own
tests, rather than only when the benchmark is next run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["lab", "advantage", "pools", "train"])
def test_smoke_run_is_correct(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
            "--size", "smoke"]
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0, report
