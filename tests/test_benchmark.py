"""The benchmark harness runs clean on this checkout.

One short traced run of every workload: it fails when a name the harness
reaches is gone or when tracing changes the numbers. Its digests go to the
git-ignored ``bench/.state``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_runs_clean():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "0", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    results = [r for r in map(json.loads, proc.stdout.splitlines()) if "correct" in r]
    assert len(results) == 3, proc.stdout
    for r in results:
        assert r["correct"] is True and r["failed"] == 0, proc.stderr
