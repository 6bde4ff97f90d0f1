"""Output checks of the benchmark, computed apart from the library.

Every formula here is written out from the paper's definitions instead of
calling ``bb84mm``: the closed-form mismatch metrics, the three-intensity
decoy bounds (Lim et al., PRA 89, 022307 (2014)), the honest channel's
expected counts and the exact binomial tail by summation.  Each check
function returns a list of failure messages; an empty list means the op's
output is correct.

Statistical checks compare against the distribution a correct sampler
would give; the false-alarm probability of each is given in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

Z_COUNTS = 7.0  # sampled counts against their expectation, two-sided
# A Monte Carlo frequency fails when a count at least as extreme has
# probability below ALPHA under Binomial(trials, exact value or bound).
ALPHA = 1e-7
DELTA_TOL = 1e-12  # oracle against closed form, and closed form against the library's
REL_TOL = 1e-9  # deterministic values the library computes by another route


# ---------------------------------------------------------------------------
# independent formulas
# ---------------------------------------------------------------------------


def closed_form(eta_det: float, d_det: float, delta_eta: float, delta_dc: float) -> tuple[float, float]:
    """Worst-case (delta1, delta2) over the detector tolerance box."""
    d_lo, d_hi = d_det * (1.0 - delta_dc), d_det * (1.0 + delta_dc)
    eta_r = (1.0 - delta_eta) / min(1.0 / eta_det, 1.0 + delta_eta)
    ratio = 1.0 if d_hi == 0.0 else (1.0 - (1.0 - d_lo) ** 2) / (1.0 - (1.0 - d_hi) ** 2)
    keep = (1.0 - d_lo) ** 2 * (1.0 - eta_r)
    d1 = 4.0 * max(1.0 - math.sqrt(ratio), 1.0 - math.sqrt(1.0 - keep))
    d2 = max(1.0 - ratio, keep)
    return min(4.0, d1), min(1.0, d2)


def _tau(m: int, mus, ps) -> float:
    return sum(p * math.exp(-mu) * mu**m / math.factorial(m) for mu, p in zip(mus, ps))


def decoy_bounds(counts, mus, ps, eps_sq: float) -> tuple[float, float, float]:
    """(vacuum lower, single-photon lower, single-photon upper) of one class."""
    mu1, mu2, mu3 = mus
    total = float(sum(counts))
    t = math.sqrt(0.5 * total * math.log(2.0 / eps_sq))
    plus = [math.exp(mu) / p * (n + t) for mu, p, n in zip(mus, ps, counts)]
    minus = [max(0.0, math.exp(mu) / p * (n - t)) for mu, p, n in zip(mus, ps, counts)]
    tau0, tau1 = _tau(0, mus, ps), _tau(1, mus, ps)
    vac = min(total, max(0.0, tau0 * (mu2 * minus[2] - mu3 * plus[1]) / (mu2 - mu3)))
    lo = (mu1 * tau1 / (mu1 * (mu2 - mu3) - mu2**2 + mu3**2)) * (
        minus[1] - plus[2] - (mu2**2 - mu3**2) / mu1**2 * (plus[0] - vac / tau0)
    )
    hi = tau1 * (plus[1] - minus[2]) / (mu2 - mu3)
    return vac, min(total, max(0.0, lo)), min(total, max(0.0, hi))


def expected_counts(ch, mus, ps) -> dict[str, list[float]]:
    """Per-intensity X, X-error and key counts of the honest channel.

    Poisson thinning gives P(both detectors silent | mu) = (1-d)^2
    exp(-mu eta), and each detector alone sees its share of the photons.
    """
    det = ch.detector
    eta = ch.transmissivity * det.eta_det
    cos2 = math.cos(math.radians(ch.misalignment_deg)) ** 2
    keep = 1.0 - det.d_det
    px = ch.p_x_alice * ch.p_x_bob
    pz = ch.p_z_alice * ch.p_z_bob
    out = {"x": [], "x_err": [], "k": []}
    for mu, p in zip(mus, ps):
        silent_ok = keep * math.exp(-mu * eta * cos2)
        silent_bad = keep * math.exp(-mu * eta * (1.0 - cos2))
        silent_both = keep * keep * math.exp(-mu * eta)
        conclusive = 1.0 - silent_both
        error = (silent_ok - silent_both) + 0.5 * (1.0 - silent_ok - silent_bad + silent_both)
        out["x"].append(ch.n_total * p * px * conclusive)
        out["x_err"].append(ch.n_total * p * px * error)
        out["k"].append(ch.n_total * p * pz * conclusive * (1.0 - ch.p_z_test))
    return out


def _sum_pmf(n: int, p: float, counts) -> float:
    """Sum of Binomial(n, p) pmf terms, walking away from the mode, until
    they stop mattering."""
    log_p, log_q, log_nf = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    total = 0.0
    for i in counts:
        term = math.exp(log_nf - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q)
        total += term
        if term == 0.0 or term < total * 1e-17:
            break
    return total


def binomial_upper_tail(n: int, p: float, k: int) -> float:
    """P[Binomial(n, p) >= k] by summing the pmf."""
    if k <= 0 or p >= 1.0:
        return 1.0
    if k > n or p <= 0.0:
        return 0.0
    if k <= n * p:
        return 1.0 - binomial_lower_tail(n, p, k - 1)
    return _sum_pmf(n, p, range(k, n + 1))


def binomial_lower_tail(n: int, p: float, k: int) -> float:
    """P[Binomial(n, p) <= k] by summing the pmf."""
    if k < 0:
        return 0.0
    if k >= n or p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    if k >= n * p:
        return 1.0 - binomial_upper_tail(n, p, k + 1)
    return _sum_pmf(n, p, range(k, -1, -1))


def tail_count(n: int, x: float) -> int:
    """Smallest count k >= n*x, with float fuzz in n*x ignored."""
    return math.ceil(n * x - 1e-9)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# keyrate_scan
# ---------------------------------------------------------------------------


@dataclass
class ScanHistory:
    """Expected-scan key lengths seen so far, per (d_det, delta_eta, delta_dc).

    Key lengths must not increase with either tolerance at equal d_det, and
    a spec scanned twice must give the same lengths.
    """

    keys: dict[tuple, tuple] = field(default_factory=dict)

    def add(self, spec_key: tuple, keys: tuple) -> list[str]:
        fails = []
        seen = self.keys.get(spec_key)
        if seen is not None and seen != keys:
            fails.append(f"{spec_key}: expected scan changed between ops")
        for other, other_keys in self.keys.items():
            if other[0] != spec_key[0] or other == spec_key:
                continue
            if other[1] <= spec_key[1] and other[2] <= spec_key[2]:
                looser, tighter = other_keys, keys
            elif spec_key[1] <= other[1] and spec_key[2] <= other[2]:
                looser, tighter = keys, other_keys
            else:
                continue
            if any(b > a for a, b in zip(looser, tighter)):
                fails.append(f"key length grows with tolerance: {other} vs {spec_key}")
        self.keys[spec_key] = keys
        return fails


def check_decision(label: str, obs, decision, mus, ps, eps_sq: float) -> list[str]:
    """A key length is >= 0, 0 when infeasible, and at most the one-photon
    lower bound on the key-class count (key comes from single photons)."""
    k = decision.key_length
    fails = []
    if k < 0:
        fails.append(f"{label}: negative key length {k}")
    if not decision.feasible and k != 0:
        fails.append(f"{label}: infeasible decision with key length {k}")
    single_key = decoy_bounds(obs.n_k, mus, ps, eps_sq)[1]
    if k > single_key:
        fails.append(f"{label}: key length {k} above single-photon key bound {single_key:.6g}")
    return fails


def check_sample(label: str, obs, tags, expect: dict, n_total: int, mus, ps, eps_sq: float) -> list[str]:
    """Tags account for the class totals, the tagged vacuum and one-photon
    counts lie in the decoy bounds, and the counts lie within Z_COUNTS
    standard deviations of their expectation."""
    fails = []
    x_err = [n * e for n, e in zip(obs.n_x, obs.e_x)]
    for cls, counts, tag in (("x", obs.n_x, tags.x), ("x_err", x_err, tags.x_err), ("k", obs.n_k, tags.k)):
        if abs(float(sum(tag)) - float(sum(counts))) > 0.5:
            fails.append(f"{label}: {cls} tags sum to {sum(tag)}, counts to {sum(counts)}")
        vac, lo, hi = decoy_bounds(counts, mus, ps, eps_sq)
        if not (vac <= tag[0] and lo <= tag[1] <= hi):
            fails.append(
                f"{label}: {cls} tags (vacuum {tag[0]}, single {tag[1]}) outside decoy bounds "
                f"(>= {vac:.6g}, [{lo:.6g}, {hi:.6g}])"
            )
        for j, (got, want) in enumerate(zip(counts, expect[cls])):
            sd = math.sqrt(want * (1.0 - want / n_total))
            if abs(got - want) > Z_COUNTS * sd:
                fails.append(f"{label}: {cls}[{j}] = {got} is {abs(got - want) / sd:.1f} sd from {want:.6g}")
    return fails


def check_scan(spec, channels, decoy_cfg, budget, deltas, points, history: ScanHistory) -> list[str]:
    fails = []
    d1, d2 = closed_form(spec.eta_det, spec.d_det, spec.delta_eta, spec.delta_dc)
    if abs(deltas.delta1 - d1) > DELTA_TOL or abs(deltas.delta2 - d2) > DELTA_TOL:
        fails.append(f"{spec}: closed form ({deltas.delta1}, {deltas.delta2}) != ({d1}, {d2})")
    mus, ps = decoy_cfg.intensities, decoy_cfg.probabilities
    eps_sq = budget.eps_at_d**2
    for ch, pt in zip(channels, points):
        label = f"d_det={spec.d_det} tol=({spec.delta_eta}, {spec.delta_dc}) loss={pt.loss_db} dB"
        expect = expected_counts(ch, mus, ps)
        got = {"x": pt.expected.n_x, "x_err": pt.expected.n_x_err, "k": pt.expected.n_k}
        for cls in got:
            if not all(_close(a, b) for a, b in zip(got[cls], expect[cls])):
                fails.append(f"{label}: expected {cls} {got[cls]} != {expect[cls]}")
        fails += check_decision(label + " expected", pt.expected, pt.expected_decision, mus, ps, eps_sq)
        fails += check_decision(label + " sampled", pt.sampled, pt.sampled_decision, mus, ps, eps_sq)
        fails += check_sample(label + " sampled", pt.sampled, pt.tags, expect, ch.n_total, mus, ps, eps_sq)
    keys = tuple(pt.expected_decision.key_length for pt in points)
    if any(b > a for a, b in zip(keys, keys[1:])):
        fails.append(f"d_det={spec.d_det} tol=({spec.delta_eta}, {spec.delta_dc}): key grows with loss {keys}")
    fails += history.add((spec.d_det, spec.delta_eta, spec.delta_dc), keys)
    return fails


# ---------------------------------------------------------------------------
# mismatch_oracle
# ---------------------------------------------------------------------------


def check_oracle(spec, oracle) -> list[str]:
    """Oracle <= closed form on both components, equal delta2, both > 0."""
    d1, d2 = closed_form(spec.eta_det, spec.d_det, spec.delta_eta, spec.delta_dc)
    fails = []
    if oracle.delta1 > d1 + DELTA_TOL:
        fails.append(f"{spec}: oracle delta1 {oracle.delta1} above closed form {d1}")
    if oracle.delta2 > d2 + DELTA_TOL:
        fails.append(f"{spec}: oracle delta2 {oracle.delta2} above closed form {d2}")
    if abs(oracle.delta2 - d2) > DELTA_TOL:
        fails.append(f"{spec}: oracle delta2 {oracle.delta2} differs from closed form {d2}")
    if not (oracle.delta1 > 0.0 and oracle.delta2 > 0.0):
        fails.append(f"{spec}: oracle deltas ({oracle.delta1}, {oracle.delta2}) not > 0")
    return fails


# ---------------------------------------------------------------------------
# lemma_suite
# ---------------------------------------------------------------------------


class LemmaReference:
    """Exact tails the lemma checks compare against, computed on first use."""

    def __init__(self, cfg) -> None:
        self.cfg = cfg
        self._values: dict[str, float] | None = None

    def values(self) -> dict[str, float]:
        if self._values is None:
            n, delta, c = self.cfg.n, self.cfg.delta, self.cfg.c
            k_small = tail_count(n, delta + c)
            two = min(1.0, 2.0 * delta)
            self._values = {
                "small_threshold": k_small,
                "small_tail": binomial_upper_tail(n, delta, k_small),
                "transfer_tail": binomial_upper_tail(n, two, tail_count(n, two + c)),
            }
        return self._values


def _too_high(freq: float, trials: int, p: float) -> bool:
    """A frequency improbably high for Binomial(trials, p) / trials."""
    return binomial_upper_tail(trials, min(p, 1.0), round(freq * trials)) < ALPHA


def _too_low(freq: float, trials: int, p: float) -> bool:
    return binomial_lower_tail(trials, p, round(freq * trials)) < ALPHA


def check_lemmas(x, reports, ref: LemmaReference) -> list[str]:
    """Small-POVM frequency two-sided against the exact tail; every other
    frequency one-sided against its bound.  The verifiers' own 3-sigma pass
    flags are not checked here: at about a thousand ops a correct sampler
    would trip them on the tight small-POVM bound."""
    iid, chain = x
    serf, small, transfer, dec = reports
    exact = ref.values()
    fails = []
    t = iid.trials

    if small.details.get("threshold") != exact["small_threshold"]:
        fails.append(f"small-POVM threshold {small.details.get('threshold')} != {exact['small_threshold']}")
    if not _close(small.bound, exact["small_tail"]):
        fails.append(f"small-POVM bound {small.bound} != exact tail {exact['small_tail']}")
    if _too_high(small.empirical, t, exact["small_tail"]) or _too_low(small.empirical, t, exact["small_tail"]):
        fails.append(f"small-POVM frequency {small.empirical} vs exact tail {exact['small_tail']}")

    # P[n_test = 0 or n_key = 0] = 2^-n, so every trial lands in a stratum.
    if _too_high(serf.empirical, t, serf.bound):
        fails.append(f"Serfling frequency {serf.empirical} above weighted bound {serf.bound}")
    worst = serf.details.get("worst_stratum")
    if worst:
        nt, nk = worst["n_test"], worst["n_key"]
        bound = math.exp(-2.0 * iid.gamma**2 * nk * nt**2 / ((nk + nt) * (nt + 1.0)))
        if not _close(worst["bound"], bound):
            fails.append(f"Serfling stratum bound {worst['bound']} != {bound}")
        if _too_high(worst["empirical"], worst["trials"], bound):
            fails.append(f"Serfling stratum frequency {worst['empirical']} above bound {bound}")

    if not _close(transfer.details["tail_term"], exact["transfer_tail"]):
        fails.append(f"transfer tail {transfer.details['tail_term']} != exact {exact['transfer_tail']}")
    for row in transfer.details["grid"]:
        if _too_high(row["left"], t, row["right"]):
            fails.append(f"transfer at e={row['e']}: {row['left']} above {row['right']}")

    dev = math.sqrt(0.5 * chain.n * math.log(2.0 / chain.eps_sq))
    if not _close(dec.details["deviation"], dev):
        fails.append(f"decoy deviation {dec.details['deviation']} != {dev}")
    for row in dec.details["per_intensity"]:
        if _too_high(row["empirical"], chain.trials, chain.eps_sq):
            fails.append(f"decoy intensity {row['intensity_index']}: {row['empirical']} above {chain.eps_sq}")
    return fails
