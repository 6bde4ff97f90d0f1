"""Set-up probe: a fresh interpreter imports bb84mm.cli, builds one
workload's inputs and prints the system-wide monotonic clock at that point.
``run.py`` takes ``setup_s`` from its own clock reading before the start, so
interpreter teardown and the parent's wait are not counted.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bb84mm.cli  # noqa: E402,F401  (the import every CLI call pays)
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
