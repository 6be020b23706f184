"""The benchmark harness still reads the program the way it expects."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # The tracer wraps functions by name and reads the canonical-form
    # cache, so a change to either shows here before the benchmark runs.
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "selftest passed" in proc.stdout.splitlines()
