"""The benchmark harness's self-test runs a real op of every workload
through its checks, which read the report fields the library promises;
a change that breaks that contract fails here, not only in a benchmark run."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
