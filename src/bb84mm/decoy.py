"""Three-intensity decoy-state analysis.

Alice's phase-randomized pulses carry Poissonian photon numbers, so observed
per-intensity counts of any outcome class are linear images of the hidden
per-photon-number counts.  After a Hoeffding correction on each observed
count, algebra over the three intensities yields analytic bounds on the
zero-photon and one-photon components:

``decoy_bounds`` forms the one Hoeffding shift of the counts and returns all
three: a lower bound on the zero-photon count, and a lower and an upper
bound on the one-photon count.  ``bound_vacuum_lower``,
``bound_single_lower`` and ``bound_single_upper`` each pick one of them.

What depends only on the config is computed on first use and kept on the
``DecoyConfig`` as a cached property: the bounds' constants
(``_bound_constants``) and the source photon-number pmf the sampler draws
from (``_photon_pmf``).  The pmf's tail check is the module's one scipy
call, so it imports ``scipy.special`` itself, once per config: loading
this module for the bounds then costs no scipy import.

All bounds are clamped to the physical range [0, n_O]; clamping a valid
bound only tightens it.  Statistically inconsistent counts can cross the
one-photon bounds (lower > upper); callers treat that as infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from bb84mm.stat_bounds import _checked_number, _Record, hoeffding_decoy_dev

__all__ = [
    "DecoyConfig",
    "OutcomeCounts",
    "Observations",
    "tau",
    "intensity_given_photon",
    "decoy_bounds",
    "bound_vacuum_lower",
    "bound_single_lower",
    "bound_single_upper",
]

# Source photon numbers above this are lumped into the top bucket; at
# mu <= 1 the Poisson tail mass beyond 30 is < 1e-34.
PHOTON_CUTOFF = 30
# Largest Poisson mass above PHOTON_CUTOFF the sampler accepts (reached
# near mu = 4.7).
MAX_TAIL = 1e-15


@dataclass(frozen=True)
class DecoyConfig(_Record):
    """Intensities mu1 > mu2 + mu3, mu2 > mu3 >= 0, each at most 100 (the
    bounds' exp(mu) stays far from overflow), and their probabilities.  The
    one-photon lower bound's two divisors, as ``decoy_bounds`` forms them in
    floating point, must come out positive: they underflow to 0 below mu1 of
    about 1e-154, and rounding can make the first 0 or negative when mu1 is
    within a few ulps of mu2 + mu3."""

    intensities: tuple[float, float, float]
    probabilities: tuple[float, float, float]

    _FIELDS = {"intensities": (0.0, 100.0, tuple, "[]"), "probabilities": (0.0, 1.0, tuple, "(]")}

    def __post_init__(self) -> None:
        super().__post_init__()
        mu1, mu2, mu3 = self.intensities
        if not (mu1 > mu2 + mu3 and mu2 > mu3):
            raise ValueError(
                f"intensities must satisfy mu1 > mu2 + mu3 and mu2 > mu3 >= 0, "
                f"got {self.intensities}"
            )
        if min(_single_photon_divisors(mu1, mu2, mu3)) <= 0.0:
            raise ValueError(
                f"intensities must keep the one-photon bound's divisors "
                f"mu1(mu2 - mu3) - mu2^2 + mu3^2 and mu1^2 positive in floating "
                f"point, got {self.intensities}"
            )
        if abs(sum(self.probabilities) - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {self.probabilities}")

    @classmethod
    def reference(cls) -> "DecoyConfig":
        """Three equiprobable intensities 0.9 / 0.1 / 0 (vacuum decoy)."""
        return cls(intensities=(0.9, 0.1, 0.0), probabilities=(1 / 3, 1 / 3, 1 / 3))

    @cached_property
    def _bound_constants(self) -> tuple[list[float], float, float]:
        """(exp(mu_k)/p_k per intensity, tau_0, tau_1): what the bounds need
        of the config, computed on first use and kept on the instance (not a
        field, so equality, hashing and ``asdict`` ignore it)."""
        scale = np.exp(self.intensities) / np.asarray(self.probabilities)
        return scale.tolist(), tau(0, self), tau(1, self)

    @cached_property
    def _photon_pmf(self) -> np.ndarray:
        """Source photon-number pmf of each intensity, shape (3, PHOTON_CUTOFF + 1);
        the top bucket takes the Poisson tail.  Kept like ``_bound_constants``
        (a rejected config raises on every access) and read-only."""
        from scipy.special import gammainc  # once per config; see the module docstring

        if gammainc(PHOTON_CUTOFF + 1, max(self.intensities)) > MAX_TAIL:
            raise ValueError(
                f"intensities must put at most {MAX_TAIL:g} Poisson mass above "
                f"{PHOTON_CUTOFF} photons, got {self.intensities}"
            )
        pmf = np.array([[_poisson(m, mu) for m in range(PHOTON_CUTOFF + 1)] for mu in self.intensities])
        pmf[:, -1] += np.maximum(0.0, 1.0 - pmf.sum(axis=1))
        pmf.flags.writeable = False
        return pmf


@dataclass(frozen=True)
class OutcomeCounts(_Record):
    """Per-intensity counts of one outcome class.

    Counts are integers in a protocol run; expectation pipelines may carry
    real values, which the bounds accept unchanged.  Each is at most 1e24,
    the cap on a run's rounds (``ChannelSpec.n_total``).
    """

    counts: tuple[float, float, float]

    _FIELDS = {"counts": (0.0, 10**24, tuple, "[]")}

    @property
    def total(self) -> float:
        return sum(self.counts)


def _snap_to_integer(v: float) -> float:
    r = round(v)
    return float(r) if abs(v - r) <= 2 * math.ulp(r) else v


@dataclass(frozen=True)
class Observations(_Record):
    """Full per-intensity observation record of one protocol run.

    ``n_x``: X-basis conclusive counts, ``n_k``: key-generation counts,
    ``e_x``: per-intensity X error rates, ``e_z``: pooled error-rate estimate
    from the sampled key-basis test fraction.  Each count is at most 1e24,
    the cap on a run's rounds (``ChannelSpec.n_total``).
    """

    n_x: tuple[float, float, float]
    n_k: tuple[float, float, float]
    e_x: tuple[float, float, float]
    e_z: float

    _FIELDS = {
        "n_x": (0.0, 10**24, tuple, "[]"), "n_k": (0.0, 10**24, tuple, "[]"),
        "e_x": (0.0, 1.0, tuple, "[]"), "e_z": (0.0, 1.0, float, "[]"),
    }

    @property
    def n_x_err(self) -> tuple[float, float, float]:
        """Per-intensity counts of X-basis conclusive rounds with an error.

        n * e within two ulps of an integer is that integer: a run's error
        count k comes back exactly from e = k / n, where n * e can fall an
        ulp short of k (and below a decoy bound clamped at the class total).
        """
        return tuple(_snap_to_integer(n * e) for n, e in zip(self.n_x, self.e_x))

    def counts_x(self) -> OutcomeCounts:
        return OutcomeCounts(tuple(self.n_x))

    def counts_x_err(self) -> OutcomeCounts:
        return OutcomeCounts(self.n_x_err)

    def counts_k(self) -> OutcomeCounts:
        return OutcomeCounts(tuple(self.n_k))


def _single_photon_divisors(mu1: float, mu2: float, mu3: float) -> tuple[float, float]:
    """mu1(mu2 - mu3) - mu2^2 + mu3^2 and mu1^2, the divisors of the
    one-photon lower bound, as ``decoy_bounds`` forms them."""
    return mu1 * (mu2 - mu3) - mu2**2 + mu3**2, mu1**2


def _poisson(m: int, mu: float) -> float:
    """Poisson mass p(m | mu) = exp(-mu) mu^m / m!, the module's one pmf.
    Unchecked: callers pass an integer m >= 0 and a finite mu >= 0."""
    if mu == 0.0:
        return 1.0 if m == 0 else 0.0
    return math.exp(m * math.log(mu) - mu - math.lgamma(m + 1))


def tau(m: int, cfg: DecoyConfig) -> float:
    """Unconditional probability of an m-photon emission under cfg."""
    m = _checked_number("m", m, 0, math.inf, int)
    return sum(p * _poisson(m, mu) for p, mu in zip(cfg.probabilities, cfg.intensities))


def intensity_given_photon(m: int, cfg: DecoyConfig) -> np.ndarray:
    """Conditional intensity distribution p(mu_k | m), a length-3 vector.

    Only needed by the Monte Carlo validator; the analytic bounds absorb
    these probabilities.
    """
    m = _checked_number("m", m, 0, math.inf, int)
    w = np.array([p * _poisson(m, mu) for p, mu in zip(cfg.probabilities, cfg.intensities)])
    t = w.sum()
    if t <= 0.0:
        raise ValueError(f"no intensity can emit {m} photons under {cfg}")
    return w / t


def decoy_bounds(
    counts: OutcomeCounts, cfg: DecoyConfig, eps_sq: float
) -> tuple[float, float, float]:
    """(zero-photon lower, one-photon lower, one-photon upper) bounds on the
    outcome class.  The one Hoeffding shift: each count is widened by the
    deviation for the outcome total and rescaled by exp(mu_k)/p_k, and the
    minus branch is clamped by ``max(v, 0.0)``, which keeps a NaN or -0.0
    as ``np.maximum(0.0, v)`` does."""
    mu1, mu2, mu3 = cfg.intensities
    total = counts.total
    t = hoeffding_decoy_dev(total, eps_sq)
    scale, tau0, tau1 = cfg._bound_constants
    n = [float(c) for c in counts.counts]
    plus = [s * (c + t) for s, c in zip(scale, n)]
    minus = [max(s * (c - t), 0.0) for s, c in zip(scale, n)]

    def clamp(raw: float) -> float:
        return float(min(total, max(0.0, raw)))

    vac = clamp(tau0 * (mu2 * minus[2] - mu3 * plus[1]) / (mu2 - mu3))
    denom, mu1_sq = _single_photon_divisors(mu1, mu2, mu3)
    single_lower = clamp(
        (mu1 * tau1 / denom)
        * (minus[1] - plus[2] - (mu2**2 - mu3**2) / mu1_sq * (plus[0] - vac / tau0))
    )
    single_upper = clamp(tau1 * (plus[1] - minus[2]) / (mu2 - mu3))
    return vac, single_lower, single_upper


def bound_vacuum_lower(counts: OutcomeCounts, cfg: DecoyConfig, eps_sq: float) -> float:
    """Lower bound on the zero-photon component of the outcome class."""
    return decoy_bounds(counts, cfg, eps_sq)[0]


def bound_single_lower(counts: OutcomeCounts, cfg: DecoyConfig, eps_sq: float) -> float:
    """Lower bound on the one-photon component of the outcome class."""
    return decoy_bounds(counts, cfg, eps_sq)[1]


def bound_single_upper(counts: OutcomeCounts, cfg: DecoyConfig, eps_sq: float) -> float:
    """Upper bound on the one-photon component of the outcome class."""
    return decoy_bounds(counts, cfg, eps_sq)[2]
