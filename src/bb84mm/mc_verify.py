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

Each verifier samples only the statistic it reads, from its exact
distribution, instead of simulating rounds: multinomials for the Serfling
assignment, one Multinomial(trials, pmf) histogram over the Poisson-binomial
pmf for click counts (its upper tails give every threshold's frequency, the
pmf's own the exact probability), and, for the decoy counts, the
photon-level visits of the sticky chain drawn in closed form (a binomial
number of runs, a multinomial of runs per level, a Dirichlet-multinomial
of their extra rounds) followed by per-level multinomials.  Each
verifier is deterministic given ``cfg.seed`` and reports the empirical
violation frequency, the analytic bound, the exact binomial standard error
of the empirical frequency, and a pass flag meaning empirical <= bound +
3*sigma on every tested statistic, Serfling's pooled frequency included (and,
where the pmf gives it, exact probability <= bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from bb84mm.decoy import DecoyConfig, intensity_given_photon
from bb84mm.stat_bounds import (
    TailQuery,
    _checked_number,
    _checked_probabilities,
    _Record,
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

# Relative slack of the exact-probability checks: the pmf product tree and
# the incomplete-beta tail agree to about 3e-14 where they compute the same value.
EXACT_RTOL = 1e-12

# The transfer profile's rates spread up to 0.05 either side of base_rate
# but never below this.
MIN_TRANSFER_RATE = 0.01

PROFILES = ("extremal", "heterogeneous", "zero")

# The distribution each verifier draws its counts from, by report name.
SAMPLERS = {
    "serfling": "multinomial (test, key, neither) counts among the ones and among the zeros",
    "smallpovm": "histogram of the Poisson-binomial click count, one multinomial over the exact pmf",
    "transfer": "two independent click-count histograms, one multinomial over each profile's Poisson-binomial pmf",
    "decoy": "sticky-chain photon-level visits from a binomial run count, a multinomial of runs per level and a Dirichlet-multinomial of their lengths, then per-level multinomials",
}


@dataclass(frozen=True)
class TrialConfig(_Record):
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

    # Fewer than 1000 trials give no reportable frequencies.
    _FIELDS = {
        "n": (1, math.inf, int, "[]"), "trials": (1000, math.inf, int, "[]"),
        "seed": (0, math.inf, int, "[]"), "gamma": (0.0, math.inf, float, "[]"),
        "eps_sq": (0.0, 1.0, float, "(]"), "photon_levels": (1, math.inf, int, "[]"),
        "constant_photons": (-1, math.inf, int, "[]"),
        **dict.fromkeys(
            ("p_test", "p_key", "ones_density", "delta", "c", "base_rate", "markov_stay"),
            (0.0, 1.0, float, "[]"),
        ),
    }

    def __post_init__(self) -> None:
        super().__post_init__()
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


def _binomial_se(freq, count):
    """Standard error of a frequency over ``count`` trials, elementwise."""
    return np.sqrt(freq * (1.0 - freq) / np.maximum(count, 1))


def _rng(cfg: TrialConfig, name: str) -> np.random.Generator:
    """One independent stream per verifier, all seeded from ``cfg.seed``."""
    return np.random.default_rng([cfg.seed, list(SAMPLERS).index(name)])


def poisson_binomial_pmf(p: np.ndarray) -> np.ndarray:
    """pmf of the number of successes among independent Bernoulli(p_i).

    The pmf is the coefficient list of the product of the rounds'
    polynomials (1 - p_i) + p_i z, multiplied pairwise up a balanced tree
    (one of the exact methods Hong 2013, CSDA 59:41-51, compares).  The
    rounds are padded to a power of two with the factor 1, which changes
    nothing.  A level with at least as many products as coefficients per
    factor loops over the coefficients, batched across the products;
    above it, each product is one ``np.convolve``.  Every term is a
    product of nonnegative numbers, so nothing cancels and small tails
    keep their relative accuracy (an FFT would not: its absolute error
    near 1e-16 swamps them).  Every entry of ``p`` must lie in [0, 1].
    """
    p = _checked_probabilities("p", p)
    n = p.size
    polys = np.zeros((1 << (max(n, 1) - 1).bit_length(), 2))
    polys[:, 0] = 1.0
    polys[:n, 0] -= p
    polys[:n, 1] = p
    while polys.shape[0] > 1:
        a, b = polys[0::2], polys[1::2]
        rows, width = b.shape
        if rows >= width:
            polys = np.zeros((rows, 2 * width - 1))
            for j in range(width):
                polys[:, j : j + width] += a[:, j : j + 1] * b
        else:
            polys = np.stack([np.convolve(x, y) for x, y in zip(a, b)])
    return polys[0, : n + 1]


def _tails(v: np.ndarray) -> np.ndarray:
    """Upper tails ``v[k:].sum()`` for k = 0 .. len(v), the last one 0.

    Summed from the top, so small tails keep their accuracy.
    """
    return np.append(np.cumsum(v[::-1])[::-1], 0.0)


def _tails_at(pmf: np.ndarray, trials: int, rng: np.random.Generator, k):
    """Exact P[count >= k] under ``pmf`` and the frequency of count >= k
    among ``trials`` draws from it, at thresholds ``k`` clamped to [0, n + 1].

    The draws matter only through their histogram, which is
    Multinomial(trials, pmf), so that is what is sampled.
    """
    hist = rng.multinomial(trials, pmf / pmf.sum())
    k = np.clip(k, 0, pmf.size)
    return _tails(pmf)[k], _tails(hist)[k] / trials


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
    with probability ``stay`` or redraws it uniformly, independently of
    everything before.  The counts are drawn directly, with no loop:

    * the redraws among the n - 1 gaps between rounds number
      R ~ Binomial(n - 1, 1 - stay), and cut the rounds into R + 1 runs;
    * each run has an IID uniform level, so the runs per level are
      r ~ Multinomial(R + 1, 1/levels);
    * given R, the cuts are a uniform R-subset of the gaps, so the run
      lengths are a uniform composition of n into R + 1 positive parts,
      independent of the levels.  Their excesses over one round are a
      uniform composition of n - 1 - R into R + 1 nonnegative parts, i.e.
      Dirichlet-multinomial with unit weights, and summed by level they
      are Dirichlet-multinomial with weights r: Multinomial(n - 1 - R, w)
      with w = g / sum(g), g_l ~ Gamma(r_l) (Gamma(0) is exactly 0).

    The visits are r plus those excesses.  ``constant >= 0`` pins every
    round to that level.
    """
    if constant >= 0:
        visits = np.zeros((trials, levels), np.int64)
        visits[:, constant] = n
        return visits
    redraws = rng.binomial(n - 1, 1.0 - stay, trials)
    runs = rng.multinomial(redraws + 1, np.full(levels, 1.0 / levels))
    g = rng.gamma(runs)
    return runs + rng.multinomial(n - 1 - redraws, g / g.sum(axis=1, keepdims=True))


def _intensity_counts(visits: np.ndarray, cond: np.ndarray, rng) -> np.ndarray:
    """Per-trial intensity counts: the sum over levels m of
    Multinomial(visits_m, p(mu | m)), since intensities are drawn
    independently round by round given the photon numbers."""
    return sum(rng.multinomial(visits[:, m], cond[m]) for m in range(cond.shape[0]))


def verify_serfling(cfg: TrialConfig) -> VerifierReport:
    """Key mean exceeding test mean + gamma, conditioned per stratum.

    Positions of a fixed bit string are assigned to test/key IID; trials
    are bucketed by the realized (n_test, n_key) and each occupied bucket
    is checked against exp(-2 gamma^2 f_serf(n_test, n_key)); the pooled
    frequency is checked against the trial-weighted mean bound, so a run with
    no tested stratum is still judged and a run with no valid trial fails.
    """
    rng = _rng(cfg, "serfling")
    n_t, n_k, s_t, s_k = _serfling_counts(
        cfg.n, int(round(cfg.n * cfg.ones_density)), cfg.p_test, cfg.p_key, cfg.trials, rng
    )
    valid = (n_t >= 1) & (n_k >= 1)
    n_t, n_k, s_t, s_k = n_t[valid], n_k[valid], s_t[valid], s_k[valid]
    viol = s_k / n_k >= s_t / n_t + cfg.gamma - 1e-15

    keys = n_t.astype(np.int64) * (cfg.n + 1) + n_k
    strata, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    nt, nk = np.divmod(strata, cfg.n + 1)
    emp = np.bincount(inverse, weights=viol) / counts
    bound = np.exp(-2.0 * cfg.gamma**2 * f_serf(nt.astype(float), nk.astype(float)))
    sig = _binomial_se(emp, counts)
    margin = emp - bound - 3.0 * sig
    tested = counts >= MIN_STRATUM
    worst = None
    if tested.any():
        i = np.flatnonzero(tested)[np.argmax(margin[tested])]
        worst = {
            "n_test": int(nt[i]),
            "n_key": int(nk[i]),
            "trials": int(counts[i]),
            "empirical": float(emp[i]),
            "bound": float(bound[i]),
            "sigma": float(sig[i]),
            "margin": float(margin[i]),
        }

    n_valid = viol.size
    empirical = float(viol.sum()) / n_valid if n_valid else 0.0
    pooled = float(counts @ bound) / n_valid if n_valid else 0.0
    sigma = float(_binomial_se(empirical, n_valid))
    pooled_ok = n_valid > 0 and empirical <= pooled + 3.0 * sigma
    return VerifierReport(
        name="serfling",
        empirical=empirical,
        bound=pooled,
        sigma=sigma,
        passed=bool(pooled_ok and np.all((emp <= bound + 3.0 * sig)[tested])),
        details={
            "strata_tested": int(tested.sum()),
            "strata_skipped": int(strata.size - tested.sum()),
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
    carries the two-sided agreement for that mode).  The trials' counts
    are one Multinomial(trials, pmf) histogram over the exact
    Poisson-binomial pmf, whose own tail is reported as ``details["exact"]``
    and must itself lie below the bound.
    """
    rng = _rng(cfg, "smallpovm")
    pmf = poisson_binomial_pmf(_click_profile(cfg, rng))
    threshold = _tail_threshold(cfg.n, cfg.delta + cfg.c)
    exact, empirical = map(float, _tails_at(pmf, cfg.trials, rng, threshold))
    bound = binomial_tail(TailQuery(n=cfg.n, delta=cfg.delta, c=cfg.c))
    sigma = float(_binomial_se(empirical, cfg.trials))
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
    drawn independently, each trial's count as one histogram over its exact
    Poisson-binomial pmf: the proof's coupling of the profiles through
    shared per-round uniforms (the three-outcome remapping) is only its
    device and changes neither side.
    With independent draws, the hypot of the two standard errors is exact,
    not conservative.  A row passes only if its exact sides (``exact_left``,
    ``exact_right``) satisfy the inequality too.
    """
    _checked_number("base_rate", cfg.base_rate, MIN_TRANSFER_RATE, 1.0)
    rng = _rng(cfg, "transfer")
    half_width = min(cfg.base_rate - MIN_TRANSFER_RATE, 0.05)
    p = np.clip(rng.uniform(cfg.base_rate - half_width, cfg.base_rate + half_width, cfg.n), 0.0, 1.0)
    p_prime = np.clip(p + rng.uniform(-cfg.delta, cfg.delta, cfg.n), 0.0, 1.0)
    grid = [cfg.base_rate - 0.02, cfg.base_rate, cfg.base_rate + 0.02]
    k_right = [_tail_threshold(cfg.n, e) for e in grid]
    k_left = [_tail_threshold(cfg.n, e + 2.0 * cfg.delta + cfg.c) for e in grid]
    exact_right, right_freq = _tails_at(poisson_binomial_pmf(p), cfg.trials, rng, k_right)
    exact_left, left = _tails_at(poisson_binomial_pmf(p_prime), cfg.trials, rng, k_left)
    tail = binomial_tail(TailQuery(n=cfg.n, delta=min(1.0, 2.0 * cfg.delta), c=cfg.c))
    right, exact_right = right_freq + tail, exact_right + tail
    sig = np.hypot(_binomial_se(left, cfg.trials), _binomial_se(right_freq, cfg.trials))
    ok = (left <= right + 3.0 * sig) & (exact_left <= exact_right * (1.0 + EXACT_RTOL))
    columns = (left, right, exact_left, exact_right, sig, ok)
    rows = [
        {"e": e, "left": lf, "right": rt, "exact_left": xl, "exact_right": xr, "sigma": sg, "pass": ps}
        for e, lf, rt, xl, xr, sg, ps in zip(grid, *(col.tolist() for col in columns))
    ]
    worst = rows[int(np.argmax(left - right))]
    return VerifierReport(
        name="transfer",
        empirical=worst["left"],
        bound=worst["right"],
        sigma=worst["sigma"],
        passed=bool(ok.all()),
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
    emp = (np.abs(counts_k - counts_m @ cond) >= t).mean(axis=0)
    sig = _binomial_se(emp, cfg.trials)
    ok = emp <= cfg.eps_sq + 3.0 * sig
    rows = [
        {"intensity_index": k, "empirical": e, "sigma": sg, "pass": ps}
        for k, (e, sg, ps) in enumerate(zip(emp.tolist(), sig.tolist(), ok.tolist()))
    ]
    worst = rows[int(np.argmax(emp))]
    return VerifierReport(
        name="decoy",
        empirical=worst["empirical"],
        bound=cfg.eps_sq,
        sigma=worst["sigma"],
        passed=bool(ok.all()),
        details={
            "deviation": t,
            "per_intensity": rows,
            "constant_photons": cfg.constant_photons,
            "markov_stay": cfg.markov_stay,
        },
    )
