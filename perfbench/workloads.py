"""The three benchmark workloads: inputs from a seed, one op, and its checks.

Each workload object is built from ``--seed`` alone (that is the "inputs
built" end of ``setup_s``).  ``op_input(i)`` returns the input of op ``i``
and is not timed; ``op(x)`` is the timed call into the library; ``check(x,
out)`` returns a list of failure messages and is not timed either.

Within a workload every op does the same amount of work; only values that
do not change the cost vary from op to op (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bb84mm import channel_sim, decoy, detector_model, keyrate, mc_verify

import checks

# keyrate_scan: n_total 1e12 over 0..52 dB in 2 dB steps.  The last positive
# key of every spec lies at or below 48 dB and the first decoy-infeasible
# point above 60 dB, so every point runs the same chain of bounds.
N_TOTAL = 10**12
LOSS_DB = tuple(2.0 * i for i in range(27))
MISALIGNMENT_DEG = 2.0
ETA_DET = 0.7
SCAN_TOLERANCES = (0.005, 0.01, 0.02, 0.05)
SCAN_D_DET = (1e-7, 1e-6, 1e-5)

# mismatch_oracle: the `delta` subcommand's defaults.
ORACLE_N_MAX = 10
ORACLE_INTERIOR = 16
ORACLE_TOLERANCES = (0.005, 0.01, 0.02, 0.05)
ORACLE_D_DET = (1e-6, 1e-4)

# lemma_suite: the IID kernels and the sticky-chain kernel each take about
# half of an op at these trial counts.
LEMMA_N = 2000
LEMMA_IID_TRIALS = 8192
LEMMA_DECOY_TRIALS = 2000


def _op_seed(seed: int, i: int, count: int = 1) -> list[int]:
    return [int(v) for v in np.random.SeedSequence([seed, i]).generate_state(count)]


@dataclass(frozen=True)
class ScanPoint:
    loss_db: float
    expected: object
    expected_decision: object
    sampled: object
    tags: object
    sampled_decision: object


class KeyrateScan:
    """One op: one detector spec's expected and sampled loss scan."""

    name = "keyrate_scan"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.decoy = decoy.DecoyConfig.reference()
        self.budget = keyrate.EpsilonBudget.equal(1e-12)
        specs = [
            detector_model.DetectorSpec(ETA_DET, d, de, dd)
            for d in SCAN_D_DET
            for t in SCAN_TOLERANCES
            for de, dd in ((t, t), (t, 0.0), (0.0, t))
        ]
        start = seed % len(specs)
        self.specs = specs[start:] + specs[:start]
        self.channels = {
            d: [
                channel_sim.ChannelSpec(
                    transmissivity=10.0 ** (-loss / 10.0),
                    misalignment_deg=MISALIGNMENT_DEG,
                    detector=detector_model.DetectorSpec(ETA_DET, d),
                    n_total=N_TOTAL,
                )
                for loss in LOSS_DB
            ]
            for d in SCAN_D_DET
        }
        self.history = checks.ScanHistory()

    def op_input(self, i: int):
        spec = self.specs[i % len(self.specs)]
        return spec, self.channels[spec.d_det], _op_seed(self.seed, i, len(LOSS_DB))

    def op(self, x) -> tuple:
        spec, channels, seeds = x
        deltas = detector_model.closed_form_deltas(spec)
        points = []
        for loss, ch, s in zip(LOSS_DB, channels, seeds):
            exp_obs = channel_sim.expected_observations(ch, self.decoy)
            exp_dec = keyrate.key_length_decoy(exp_obs, self.decoy, deltas, self.budget)
            obs, tags = channel_sim.sample_observations(ch, self.decoy, seed=s, with_tags=True)
            dec = keyrate.key_length_decoy(obs, self.decoy, deltas, self.budget)
            points.append(ScanPoint(loss, exp_obs, exp_dec, obs, tags, dec))
        return deltas, points

    def check(self, x, out) -> list[str]:
        spec, channels, _ = x
        deltas, points = out
        fails = []
        # Zero tolerance skips the gamma_bin bisections, so its scans would
        # be cheaper ops; they serve only as the reference the tolerance
        # check compares against.
        zero = (spec.d_det, 0.0, 0.0)
        if zero not in self.history.keys:
            deltas0 = detector_model.closed_form_deltas(detector_model.DetectorSpec(ETA_DET, spec.d_det))
            keys0 = tuple(
                keyrate.key_length_decoy(
                    channel_sim.expected_observations(ch, self.decoy), self.decoy, deltas0, self.budget
                ).key_length
                for ch in channels
            )
            fails += self.history.add(zero, keys0)
        return fails + checks.check_scan(spec, channels, self.decoy, self.budget, deltas, points, self.history)

    def warmup(self) -> None:
        x = self.op_input(0)
        self.op((x[0], x[1][:1], x[2][:1]))


class MismatchOracle:
    """One op: ``oracle_deltas`` at the ``delta`` subcommand's defaults."""

    name = "mismatch_oracle"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # Only specs with both tolerances > 0 and d_det > 0: a flat box axis
        # makes the oracle raise (see the FOUND line in CHANGES.md).
        specs = [
            detector_model.DetectorSpec(ETA_DET, d, t, t)
            for t in ORACLE_TOLERANCES
            for d in ORACLE_D_DET
        ]
        start = seed % len(specs)
        self.specs = specs[start:] + specs[:start]

    def op_input(self, i: int):
        return self.specs[i % len(self.specs)], _op_seed(self.seed, i)[0]

    def op(self, x):
        spec, lhs_seed = x
        return detector_model.oracle_deltas(
            spec, n_max=ORACLE_N_MAX, interior_samples=ORACLE_INTERIOR, seed=lhs_seed
        )

    def check(self, x, out) -> list[str]:
        return checks.check_oracle(x[0], out)

    def warmup(self) -> None:
        detector_model.oracle_deltas(self.specs[0], n_max=2, interior_samples=1, seed=0)


class LemmaSuite:
    """One op: the four lemma verifiers at n = 2000 with a fresh seed."""

    name = "lemma_suite"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.exact = checks.LemmaReference(mc_verify.TrialConfig(n=LEMMA_N, trials=LEMMA_IID_TRIALS))
        self.flags = 0  # ops whose verifiers raised their own 3-sigma flag

    def op_input(self, i: int):
        s = _op_seed(self.seed, i)[0]
        return (
            mc_verify.TrialConfig(n=LEMMA_N, trials=LEMMA_IID_TRIALS, seed=s),
            mc_verify.TrialConfig(n=LEMMA_N, trials=LEMMA_DECOY_TRIALS, seed=s),
        )

    def op(self, x):
        iid, chain = x
        return (
            mc_verify.verify_serfling(iid),
            mc_verify.verify_small_povm(iid),
            mc_verify.verify_freq_transfer(iid),
            mc_verify.verify_decoy_hoeffding(chain),
        )

    def check(self, x, out) -> list[str]:
        self.flags += not all(r.passed for r in out)
        return checks.check_lemmas(x, out, self.exact)

    def warmup(self) -> None:
        small = mc_verify.TrialConfig(n=200, trials=1000, seed=0)
        self.op((small, small))


WORKLOADS = {w.name: w for w in (KeyrateScan, MismatchOracle, LemmaSuite)}

