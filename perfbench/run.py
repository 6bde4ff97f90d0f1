#!/usr/bin/env python3
"""Benchmark of bb84mm: key-rate scans, the mismatch oracle, the lemma verifiers.

Usage, from the repository root:

    python3 perfbench/run.py --workload keyrate_scan --seed 1 --seconds 35 --trace 0

Runs ops of one workload (see workloads.py) in a closed loop for
``--seconds``, checks every op's output (see checks.py), and prints as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` each op runs untraced and then traced on
the same input, and the metrics are the per-layer ones.  The full record of
the run (environment, op times, failures, spans of the first traced op) goes
to perfbench/out/.
"""

import os

# One BLAS thread, fixed before numpy loads and inherited by the set-up
# probes: with OpenBLAS's default of two threads here, photon blocks at
# N >= 20 sometimes took 3-5x longer.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Fresh interpreter starts per run for setup_s; their median is reported.
SETUP_STARTS = 3
SETUP_TIMEOUT_S = 20


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("keyrate_scan", "mismatch_oracle", "lemma_suite"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _setup_seconds(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    out = []
    for _ in range(SETUP_STARTS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
        out.append(float(done.stdout.split()[-1]) - t0)
    return out


def _env(args, blas_threads) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": blas_threads,
        "git_sha": _git_sha(),
        "machine": platform.machine(),
    }


class Run:
    """Closed loop of ops for a fixed time, with checks between ops."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.op_s: list[float] = []
        self.pairs: list[tuple[float, float]] = []  # (untraced, traced) seconds

    def _attempt(self, x, call):
        self.attempted += 1
        try:
            out, dt = call(x)
        except Exception:  # the op failed: count it, keep the traceback, go on
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return None
        self.problems += self.wl.check(x, out)
        return dt

    def _plain(self, x):
        t0 = time.perf_counter()
        out = self.wl.op(x)
        return out, time.perf_counter() - t0

    def measure(self, seconds: float, tracer=None) -> None:
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            x = self.wl.op_input(i)
            i += 1
            dt = self._attempt(x, self._plain)
            if dt is not None:
                self.op_s.append(dt)
            if tracer is not None:
                dt_traced = self._attempt(x, lambda y: tracer.run_op(self.wl.op, y))
                if dt is not None and dt_traced is not None:
                    self.pairs.append((dt, dt_traced))


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "bb84mm" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}/bb84mm; run from a full checkout", file=sys.stderr)
        return 2
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    setup = [] if args.trace else _setup_seconds(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import bb84mm

    if Path(bb84mm.__file__).resolve().parent != SRC / "bb84mm":
        print(f"error: imported bb84mm from {bb84mm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer, blas_threads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warmup()
    tracer = Tracer() if args.trace else None
    run = Run(wl)
    run.measure(args.seconds, tracer)

    if args.trace:
        units = [(m["name"], m["unit"]) for m in bench_spec["per_layer"]]
        metrics = tracer.per_layer(units)
        overhead = statistics.median(b - a for a, b in run.pairs) if run.pairs else 0.0
        metrics["trace.overhead_ms"]["value"] = 1e3 * overhead
    else:
        n = len(run.op_s)
        values = {
            "ops_per_s": n / sum(run.op_s) if n else 0.0,
            "op_p50_ms": 1e3 * statistics.median(run.op_s) if n else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench_spec["end_to_end"]}

    env = _env(args, blas_threads())
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "env": env,
        "result": result,
        "op_ms": [1e3 * t for t in run.op_s],
        "setup_s": setup,
        "problems": run.problems[:50],
        "errors": run.errors[:5],
    }
    if hasattr(wl, "flags"):
        record["verifier_3sigma_flags"] = wl.flags
    if tracer is not None:
        record["pairs_ms"] = [[1e3 * a, 1e3 * b] for a, b in run.pairs]
        t0 = min((s[3] for s in tracer.spans), default=0.0)
        record["spans_first_op"] = {
            "fields": ["id", "parent", "name", "start_us", "end_us"],
            "rows": [[i, p, n, round(1e6 * (a - t0), 1), round(1e6 * (b - t0), 1)] for i, p, n, a, b in tracer.spans],
        }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    for line in run.problems[:5] + run.errors[:1]:
        print(f"# {line.rstrip()}", file=sys.stderr)
    print("# env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
