"""Per-layer tracing by wrapping public functions where callers look them up.

The benchmark never edits the library.  In a traced op, each target function
is replaced, in every loaded ``bb84mm`` module that holds a reference to it,
by a wrapper that records a span (name, start, end, parent) or only counts
the call.  A span's self time is its duration minus the time its child spans
cover, so the self times of all spans plus the harness's own share add up to
the op time.  Targets that a refactor renames or removes are skipped: their
metrics then read 0.

Spans of the first traced op are kept in full; for the others only the
per-name sums are kept, so memory does not grow with the run.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name, kind); kind "span" times the call, "count"
# only counts it (for calls so cheap that a span would dominate their cost).
TARGETS = (
    ("bb84mm.stat_bounds", "gamma_bin", "stat_bounds.gamma_bin", "span"),
    ("bb84mm.stat_bounds", "binomial_tail", "stat_bounds.binomial_tail", "span"),
    ("bb84mm.stat_bounds", "betainc", "stat_bounds.tail_evals", "count"),
    ("bb84mm.decoy", "single_photon_interval", "decoy.single_photon_interval", "span"),
    ("bb84mm.decoy", "bound_single_upper", "decoy.bound_single_upper", "span"),
    ("bb84mm.decoy", "photon_given_intensity", "decoy.photon_given_intensity", "count"),
    ("bb84mm.phase_error", "bound_decoy_composed", "phase_error.bound_decoy_composed", "span"),
    ("bb84mm.phase_error", "bound_mismatch", "phase_error.bound_mismatch", "span"),
    ("bb84mm.keyrate", "key_length_decoy", "keyrate.key_length_decoy", "span"),
    ("bb84mm.channel_sim", "expected_observations", "channel_sim.expected_observations", "span"),
    ("bb84mm.channel_sim", "sample_observations", "channel_sim.sample_observations", "span"),
    ("bb84mm.detector_model", "closed_form_deltas", "detector_model.closed_form_deltas", "span"),
    ("bb84mm.detector_model", "oracle_deltas", "detector_model.oracle_deltas", "span"),
    ("bb84mm.detector_model", "_box_points", "detector_model.box_points", "span"),
    ("bb84mm.detector_model", "build_block_povm", "detector_model.build_block_povm", "span"),
    ("bb84mm.detector_model", "block_deltas", "detector_model.block_deltas", "span"),
    ("bb84mm.detector_model", "mode_rotation_unitary", "detector_model.mode_rotation_unitary", "span"),
    ("numpy.linalg", "eigh", "detector_model.eigen_solve", "span"),
    ("numpy.linalg", "eigvalsh", "detector_model.eigen_solve", "span"),
    ("bb84mm.mc_verify", "verify_serfling", "mc_verify.verify_serfling", "span"),
    ("bb84mm.mc_verify", "verify_small_povm", "mc_verify.verify_small_povm", "span"),
    ("bb84mm.mc_verify", "verify_freq_transfer", "mc_verify.verify_freq_transfer", "span"),
    ("bb84mm.mc_verify", "verify_decoy_hoeffding", "mc_verify.verify_decoy_hoeffding", "span"),
    ("bb84mm._kernels", "serfling_trials", "kernels.serfling_trials", "span"),
    ("bb84mm._kernels", "bernoulli_count_trials", "kernels.bernoulli_count_trials", "span"),
    ("bb84mm._kernels", "coupled_pair_trials", "kernels.coupled_pair_trials", "span"),
    ("bb84mm._kernels", "intensity_assignment_trials", "kernels.intensity_assignment_trials", "span"),
)

KERNELS = ("serfling_trials", "bernoulli_count_trials", "coupled_pair_trials", "intensity_assignment_trials")


class Tracer:
    """Span stack plus per-name sums for the ops traced so far."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.rotations: set = set()  # distinct (N, beta) in the current op
        self.distinct_rotations = 0
        self.spans: list[tuple] = []  # (id, parent, name, start, end), first traced op only
        self.ops = 0
        self.op_s = 0.0
        self._stack: list[list] = []  # [child seconds, span id]
        self._next_id = 0
        self._keep = False

    def _wrap_span(self, fn, name: str, hook=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                if self._keep:
                    self.spans.append((frame[1], parent, name, t0, t1))
            if hook is not None:
                hook(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_count(self, fn, name: str):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, attr: str, fn):
        """Recorder of a count that needs the call's arguments or result."""
        if attr == "_box_points":
            def hook(args, kwargs, out):
                self.extra["detector_model.box_points"] += len(out)
            return hook
        sig = inspect.signature(fn)
        if attr == "mode_rotation_unitary":
            def hook(args, kwargs, out):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.rotations.add(tuple(bound.arguments.values()))
            return hook
        if attr in KERNELS:
            def hook(args, kwargs, out):
                a = sig.bind(*args, **kwargs).arguments
                n = a["n"] if "n" in a else len(next(iter(a.values())))
                self.extra[f"kernels.{attr}.rounds"] += int(n) * int(a["trials"])
            return hook
        return None

    @contextmanager
    def patched(self):
        """Install every wrapper for the duration of one op, then restore."""
        undo = []
        modules = [m for n, m in list(sys.modules.items()) if n == "bb84mm" or n.startswith("bb84mm.")]
        for mod_name, attr, name, kind in TARGETS:
            home = sys.modules.get(mod_name)
            orig = getattr(home, attr, None) if home is not None else None
            if orig is None:
                continue
            if kind == "span":
                wrapper = self._wrap_span(orig, name, self._hook(attr, orig))
            else:
                wrapper = self._wrap_count(orig, name)
            holders = [home] if mod_name == "numpy.linalg" else modules
            for mod in holders:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, orig))
        try:
            yield
        finally:
            for mod, key, orig in reversed(undo):
                setattr(mod, key, orig)

    def run_op(self, op, arg):
        """Run one op under tracing and return (output, seconds)."""
        self._keep = self.ops == 0
        with self.patched():
            self._next_id += 1
            root = [0.0, self._next_id]
            self._stack.append(root)
            t0 = time.perf_counter()
            try:
                out = op(arg)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
        if self._keep:
            self.spans.append((root[1], 0, "op", t0, t1))
        self.self_s["harness"] += (t1 - t0) - root[0]
        self.distinct_rotations += len(self.rotations)
        self.rotations.clear()
        self.ops += 1
        self.op_s += t1 - t0
        self._keep = False
        return out, t1 - t0

    def per_layer(self, names_units: list[tuple[str, str]]) -> dict[str, dict]:
        """Per-op means of the counts and self times, under the metric names."""
        ops = max(self.ops, 1)
        rot_calls = self.calls["detector_model.mode_rotation_unitary"]
        covered = sum(v for k, v in self.self_s.items() if k != "harness")
        derived = {
            "detector_model.rotation_reuse": self.distinct_rotations / rot_calls if rot_calls else 0.0,
            "detector_model.eigen_solves": self.calls["detector_model.eigen_solve"] / ops,
            "detector_model.eigen_solve_ms": 1e3 * self.self_s["detector_model.eigen_solve"] / ops,
            "stat_bounds.tail_evals": self.calls["stat_bounds.tail_evals"] / ops,
            "trace.op_ms": 1e3 * self.op_s / ops,
            "trace.span_share": covered / self.op_s if self.op_s else 0.0,
        }
        out = {}
        for name, unit in names_units:
            if name in derived:
                value = derived[name]
            elif name.endswith(".calls"):
                value = self.calls[name[: -len(".calls")]] / ops
            elif name.endswith(".self_ms"):
                value = 1e3 * self.self_s[name[: -len(".self_ms")]] / ops
            else:
                value = self.extra.get(name, 0.0) / ops
            out[name] = {"value": value, "unit": unit}
        return out


def blas_threads() -> int | None:
    """Thread count that the loaded OpenBLAS reports, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None

