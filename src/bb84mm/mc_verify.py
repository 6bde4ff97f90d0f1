"""Monte Carlo validation of the concentration bounds on classical instances.

The sampling lemmas behind the finite-size analysis are statements about
outcome *distributions*, so classical surrogates reproduce them exactly:
per-round click probabilities stand in for POVM-element norms (the ordering
construction reduces the quantum statement to this case).  Four verifiers:

* ``verify_serfling``       -- IID test/key assignment, stratified on the
                               realized (n_test, n_key);
* ``verify_small_povm``     -- discard counts of a small click operator
                               against the binomial tail;
* ``verify_freq_transfer``  -- frequency transfer between two nearby click
                               profiles against tail + 2*delta shift;
* ``verify_decoy_hoeffding``-- per-intensity counts against photon-number-
                               conditioned expectations, with adversarially
                               correlated photon sequences.

Each verifier reads only aggregate counts, so it draws those counts from
their exact distribution instead of simulating rounds: multinomials for the
Serfling assignment, the Poisson-binomial pmf for click counts, and run
lengths of the photon-number chain followed by per-level multinomials for
the decoy counts.  Each verifier is deterministic given ``cfg.seed`` and
reports the empirical violation frequency, the analytic bound, the exact
binomial standard error of the empirical frequency, and a pass flag meaning
empirical <= bound + 3*sigma on every tested statistic (and, where the pmf
gives it, exact probability <= bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Any

import numpy as np

from bb84mm.decoy import DecoyConfig, intensity_given_photon
from bb84mm.stat_bounds import (
    TailQuery,
    _tail_threshold,
    binomial_tail,
    f_serf,
    hoeffding_decoy_dev,
)

__all__ = [
    "TrialConfig",
    "VerifierReport",
    "verify_serfling",
    "verify_small_povm",
    "verify_freq_transfer",
    "verify_decoy_hoeffding",
    "poisson_binomial_pmf",
]

# Strata below this trial count are reported but not asserted.
MIN_STRATUM = 100

# Relative slack of the exact-probability checks: the pmf recursion and the
# incomplete-beta tail agree to about 1e-14 where they compute the same value.
EXACT_RTOL = 1e-12

PROFILES = ("extremal", "heterogeneous", "zero")
# Closed range of each numeric TrialConfig field, and whether it is an
# integer; fewer than 1000 trials give no reportable frequencies.
_RANGES = {
    "n": (1, math.inf, True),
    "trials": (1000, math.inf, True),
    "seed": (0, math.inf, True),
    "p_test": (0.0, 1.0, False),
    "p_key": (0.0, 1.0, False),
    "ones_density": (0.0, 1.0, False),
    "gamma": (0.0, math.inf, False),
    "delta": (0.0, 1.0, False),
    "c": (0.0, 1.0, False),
    "base_rate": (0.0, 1.0, False),
    "eps_sq": (0.0, 1.0, False),
    "markov_stay": (0.0, 1.0, False),
    "photon_levels": (1, math.inf, True),
    "constant_photons": (-1, math.inf, True),
}

# The distribution each verifier draws its counts from, by report name.
SAMPLERS = {
    "serfling": "multinomial (test, key, neither) counts among the ones and among the zeros",
    "smallpovm": "Poisson-binomial click count, inverse-CDF draw from the exact pmf",
    "transfer": "two independent Poisson-binomial click counts, one per profile",
    "decoy": "sticky-chain photon-level visits from Geometric run lengths, then per-level multinomials",
}


@dataclass(frozen=True)
class TrialConfig:
    """Shared trial settings plus per-lemma scenario parameters.

    Defaults reproduce the acceptance configuration (n = 2000, 1e5 trials).
    """

    n: int = 2000
    trials: int = 100_000
    seed: int = 20240901
    # serfling scenario
    p_test: float = 0.5
    p_key: float = 0.5
    ones_density: float = 0.5
    gamma: float = 0.05
    # small-povm / freq-transfer scenario
    delta: float = 0.01
    c: float = 0.005
    base_rate: float = 0.1
    profile: str = "extremal"  # "extremal" | "heterogeneous" | "zero"
    # decoy-hoeffding scenario
    eps_sq: float = 1e-4
    markov_stay: float = 0.9
    photon_levels: int = 3
    constant_photons: int = -1  # >= 0 pins the photon number (IID reduction)

    def __post_init__(self) -> None:
        for name, (lo, hi, integer) in _RANGES.items():
            value = getattr(self, name)
            kind = Integral if integer else Real
            if isinstance(value, bool) or not isinstance(value, kind) or not (
                math.isfinite(value) and lo <= value <= hi
            ):
                what = "integer" if integer else "number"
                raise ValueError(f"{name} must be a finite {what} in [{lo}, {hi}], got {value!r}")
        if self.eps_sq == 0.0:
            raise ValueError("eps_sq must be > 0")
        if self.constant_photons >= self.photon_levels:
            raise ValueError(f"constant_photons must be < photon_levels = {self.photon_levels}")
        if self.p_test + self.p_key > 1.0 + 1e-12:
            raise ValueError("p_test + p_key must not exceed 1")
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, got {self.profile!r}")


@dataclass(frozen=True)
class VerifierReport:
    """Empirical-vs-bound summary of one verifier run."""

    name: str
    empirical: float
    bound: float
    sigma: float
    passed: bool
    details: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "empirical": self.empirical,
            "bound": self.bound,
            "sigma": self.sigma,
            "pass": self.passed,
            "sampler": SAMPLERS[self.name],
            "details": self.details,
        }


def _binomial_se(freq: float, count: int) -> float:
    return math.sqrt(freq * (1.0 - freq) / count) if count > 0 else 0.0


def _rng(cfg: TrialConfig, name: str) -> np.random.Generator:
    """One independent stream per verifier, all seeded from ``cfg.seed``."""
    return np.random.default_rng([cfg.seed, list(SAMPLERS).index(name)])


def poisson_binomial_pmf(p: np.ndarray) -> np.ndarray:
    """pmf of the number of successes among independent Bernoulli(p_i).

    The O(n^2) recursion (one of the methods Hong 2013, CSDA 59:41-51,
    compares) adds one round at a time; each step is a convex combination,
    so nothing cancels.
    """
    p = np.asarray(p, dtype=np.float64)
    pmf = np.zeros(p.size + 1)
    pmf[0] = 1.0
    for i, pi in enumerate(p):
        pmf[1 : i + 2] = pmf[1 : i + 2] * (1.0 - pi) + pmf[: i + 1] * pi
        pmf[0] *= 1.0 - pi
    return pmf


def _upper_tail(pmf: np.ndarray, k: int) -> float:
    """P[count >= k] summed from the pmf (small tails keep their accuracy)."""
    return float(pmf[max(k, 0) :].sum())


def _draw_counts(pmf: np.ndarray, trials: int, rng: np.random.Generator) -> np.ndarray:
    """``trials`` counts drawn from ``pmf`` by inverting its CDF."""
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(trials), side="right")


def _serfling_counts(n: int, ones: int, p_test: float, p_key: float, trials: int, rng):
    """Per-trial (n_test, n_key, ones_in_test, ones_in_key) of IID assignment.

    Each position of a fixed string with ``ones`` ones is test, key or
    neither independently, so the three counts among the ones and among the
    zeros are two independent multinomials.
    """
    pvals = [p_test, p_key, max(0.0, 1.0 - p_test - p_key)]
    in_ones = rng.multinomial(ones, pvals, size=trials)
    in_zeros = rng.multinomial(n - ones, pvals, size=trials)
    s_t, s_k = in_ones[:, 0], in_ones[:, 1]
    return s_t + in_zeros[:, 0], s_k + in_zeros[:, 1], s_t, s_k


def _chain_visits(n: int, trials: int, levels: int, stay: float, constant: int, rng) -> np.ndarray:
    """Per-trial visit counts (trials, levels) of the sticky photon chain.

    The chain starts at a uniform level; each later round keeps the level
    with probability ``stay`` or redraws it uniformly.  So it is a sequence
    of runs at fresh uniform levels with Geometric(1 - stay) lengths,
    truncated at the rounds left, and the loop runs over runs, not rounds.
    ``constant >= 0`` pins every round to that level.
    """
    visits = np.zeros((trials, levels), np.int64)
    if constant >= 0:
        visits[:, constant] = n
        return visits
    rows = np.arange(trials)
    left = np.full(trials, n, np.int64)
    while rows.size:
        run = left[rows] if stay >= 1.0 else np.minimum(rng.geometric(1.0 - stay, rows.size), left[rows])
        visits[rows, rng.integers(0, levels, rows.size)] += run
        left[rows] -= run
        rows = rows[left[rows] > 0]
    return visits


def _intensity_counts(visits: np.ndarray, cond: np.ndarray, rng) -> np.ndarray:
    """Per-trial intensity counts: the sum over levels m of
    Multinomial(visits_m, p(mu | m)), since intensities are drawn
    independently round by round given the photon numbers."""
    return sum(rng.multinomial(visits[:, m], cond[m]) for m in range(cond.shape[0]))


def verify_serfling(cfg: TrialConfig) -> VerifierReport:
    """Key mean exceeding test mean + gamma, conditioned per stratum.

    Positions of a fixed bit string are assigned to test/key IID; trials
    are bucketed by the realized (n_test, n_key) and each occupied bucket
    is checked against exp(-2 gamma^2 f_serf(n_test, n_key)).
    """
    rng = _rng(cfg, "serfling")
    n_t, n_k, s_t, s_k = _serfling_counts(
        cfg.n, int(round(cfg.n * cfg.ones_density)), cfg.p_test, cfg.p_key, cfg.trials, rng
    )
    valid = (n_t >= 1) & (n_k >= 1)
    viol = np.zeros(cfg.trials, bool)
    viol[valid] = (
        s_k[valid] / n_k[valid] >= s_t[valid] / n_t[valid] + cfg.gamma - 1e-15
    )

    keys = n_t.astype(np.int64) * (cfg.n + 1) + n_k
    strata, inverse = np.unique(keys[valid], return_inverse=True)
    counts = np.bincount(inverse)
    viols = np.bincount(inverse, weights=viol[valid].astype(float))

    passed = True
    weighted_bound = 0.0
    tested = skipped = 0
    worst: dict[str, Any] | None = None
    for idx, key in enumerate(strata):
        nt, nk = int(key) // (cfg.n + 1), int(key) % (cfg.n + 1)
        cnt = int(counts[idx])
        emp = float(viols[idx] / cnt)
        bound = math.exp(-2.0 * cfg.gamma**2 * f_serf(nt, nk))
        weighted_bound += cnt * bound
        if cnt < MIN_STRATUM:
            skipped += 1
            continue
        tested += 1
        sig = _binomial_se(emp, cnt)
        ok = bool(emp <= bound + 3.0 * sig)
        passed &= ok
        margin = emp - bound - 3.0 * sig
        if worst is None or margin > worst["margin"]:
            worst = {
                "n_test": nt,
                "n_key": nk,
                "trials": cnt,
                "empirical": emp,
                "bound": bound,
                "sigma": sig,
                "margin": margin,
            }

    n_valid = int(valid.sum())
    empirical = float(viol.sum()) / n_valid if n_valid else 0.0
    return VerifierReport(
        name="serfling",
        empirical=empirical,
        bound=weighted_bound / n_valid if n_valid else 0.0,
        sigma=_binomial_se(empirical, n_valid),
        passed=passed,
        details={
            "strata_tested": tested,
            "strata_skipped": skipped,
            "worst_stratum": worst,
            "gamma": cfg.gamma,
        },
    )


def _click_profile(cfg: TrialConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.profile == "extremal":
        return np.full(cfg.n, cfg.delta)
    if cfg.profile == "heterogeneous":
        return rng.uniform(0.0, cfg.delta, cfg.n)
    return np.zeros(cfg.n)


def verify_small_povm(cfg: TrialConfig) -> VerifierReport:
    """Discard-count tail of a small click operator vs the binomial tail.

    Per-round click probabilities p_i <= delta; the extremal profile
    p_i = delta is the Bernoulli case where the bound is tight (report
    carries the two-sided agreement for that mode).  The count is drawn
    from its exact Poisson-binomial pmf, whose tail is reported as
    ``details["exact"]`` and must itself lie below the bound.
    """
    rng = _rng(cfg, "smallpovm")
    pmf = poisson_binomial_pmf(_click_profile(cfg, rng))
    counts = _draw_counts(pmf, cfg.trials, rng)
    threshold = _tail_threshold(cfg.n, cfg.delta + cfg.c)
    bound = binomial_tail(TailQuery(n=cfg.n, delta=cfg.delta, c=cfg.c))
    exact = _upper_tail(pmf, threshold)
    empirical = float((counts >= threshold).mean())
    sigma = _binomial_se(empirical, cfg.trials)
    passed = bool(empirical <= bound + 3.0 * sigma and exact <= bound * (1.0 + EXACT_RTOL))
    sigma_bound = _binomial_se(bound, cfg.trials)
    return VerifierReport(
        name="smallpovm",
        empirical=empirical,
        bound=bound,
        sigma=sigma,
        passed=passed,
        details={
            "profile": cfg.profile,
            "threshold": threshold,
            "exact": exact,
            "tight_two_sided": bool(abs(empirical - bound) <= 3.0 * sigma_bound),
        },
    )


def verify_freq_transfer(cfg: TrialConfig) -> VerifierReport:
    """Nearby click profiles give nearby exceedance frequencies.

    Draws a random profile p and a perturbed p' with |p' - p| <= delta,
    then checks, on a grid of base rates e,

        Pr[N'/n >= e + 2 delta + c] <= Pr[N/n >= e] + tail(n; 2 delta; c).

    The inequality compares two marginal probabilities, so N and N' are
    drawn independently, each from its exact Poisson-binomial pmf: the
    proof's coupling of the profiles through shared per-round uniforms (the
    three-outcome remapping) is only its device and changes neither side.
    With independent draws, the hypot of the two standard errors is exact,
    not conservative.  A row passes only if its exact sides (``exact_left``,
    ``exact_right``) satisfy the inequality too.
    """
    rng = _rng(cfg, "transfer")
    half_width = min(cfg.base_rate - 0.01, 0.05)
    p = np.clip(rng.uniform(cfg.base_rate - half_width, cfg.base_rate + half_width, cfg.n), 0.0, 1.0)
    p_prime = np.clip(p + rng.uniform(-cfg.delta, cfg.delta, cfg.n), 0.0, 1.0)
    pmf, pmf_prime = poisson_binomial_pmf(p), poisson_binomial_pmf(p_prime)
    c_p = _draw_counts(pmf, cfg.trials, rng)
    c_pp = _draw_counts(pmf_prime, cfg.trials, rng)

    tail = binomial_tail(TailQuery(n=cfg.n, delta=min(1.0, 2.0 * cfg.delta), c=cfg.c))
    grid = [cfg.base_rate - 0.02, cfg.base_rate, cfg.base_rate + 0.02]
    rows = []
    passed = True
    for e in grid:
        k_left = _tail_threshold(cfg.n, e + 2.0 * cfg.delta + cfg.c)
        k_right = _tail_threshold(cfg.n, e)
        left = float((c_pp >= k_left).mean())
        right_freq = float((c_p >= k_right).mean())
        right = right_freq + tail
        exact_left = _upper_tail(pmf_prime, k_left)
        exact_right = _upper_tail(pmf, k_right) + tail
        sig = math.hypot(_binomial_se(left, cfg.trials), _binomial_se(right_freq, cfg.trials))
        ok = bool(left <= right + 3.0 * sig and exact_left <= exact_right * (1.0 + EXACT_RTOL))
        passed &= ok
        rows.append(
            {
                "e": e,
                "left": left,
                "right": right,
                "exact_left": exact_left,
                "exact_right": exact_right,
                "sigma": sig,
                "pass": ok,
            }
        )
    worst = max(rows, key=lambda r: r["left"] - r["right"])
    return VerifierReport(
        name="transfer",
        empirical=worst["left"],
        bound=worst["right"],
        sigma=worst["sigma"],
        passed=passed,
        details={"grid": rows, "tail_term": tail},
    )


def verify_decoy_hoeffding(cfg: TrialConfig, decoy: DecoyConfig | None = None) -> VerifierReport:
    """Per-intensity counts vs photon-conditioned expectations.

    Photon numbers follow a sticky Markov chain (correlated on purpose;
    conditioning on the sequence still leaves the intensity draws
    independent, which is all the bound needs).  Checks, for every
    intensity k,

        Pr[|n_k - sum_m p(mu_k|m) n_m| >= t] <= eps_sq,

    with t the Hoeffding deviation at the eps_sq target.
    """
    decoy = decoy or DecoyConfig.reference()
    try:
        cond = np.stack([intensity_given_photon(m, decoy) for m in range(cfg.photon_levels)])
    except ValueError as exc:
        raise ValueError(f"photon_levels = {cfg.photon_levels} is too large: {exc}") from exc
    rng = _rng(cfg, "decoy")
    counts_m = _chain_visits(
        cfg.n, cfg.trials, cfg.photon_levels, cfg.markov_stay, cfg.constant_photons, rng
    )
    counts_k = _intensity_counts(counts_m, cond, rng)
    t = hoeffding_decoy_dev(cfg.n, cfg.eps_sq)
    expected = counts_m @ cond  # (trials, intensities)
    dev = np.abs(counts_k - expected)
    rows = []
    passed = True
    for k in range(cond.shape[1]):
        emp = float((dev[:, k] >= t).mean())
        sig = _binomial_se(emp, cfg.trials)
        ok = bool(emp <= cfg.eps_sq + 3.0 * sig)
        passed &= ok
        rows.append({"intensity_index": k, "empirical": emp, "sigma": sig, "pass": ok})
    worst = max(rows, key=lambda r: r["empirical"])
    return VerifierReport(
        name="decoy",
        empirical=worst["empirical"],
        bound=cfg.eps_sq,
        sigma=worst["sigma"],
        passed=passed,
        details={
            "deviation": t,
            "per_intensity": rows,
            "constant_photons": cfg.constant_photons,
            "markov_stay": cfg.markov_stay,
        },
    )
