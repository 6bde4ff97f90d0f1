"""Three-intensity decoy-state analysis.

Alice's phase-randomized pulses carry Poissonian photon numbers, so observed
per-intensity counts of any outcome class are linear images of the hidden
per-photon-number counts.  After a Hoeffding correction on each observed
count, algebra over the three intensities yields analytic bounds on the
zero-photon and one-photon components:

``decoy_bounds`` returns all three from one Hoeffding shift of the counts:
a lower bound on the zero-photon count, and a lower and an upper bound on
the one-photon count.  ``bound_vacuum_lower``, ``bound_single_lower`` and
``bound_single_upper`` each pick one of them.

All bounds are clamped to the physical range [0, n_O]; clamping a valid
bound only tightens it.  Statistically inconsistent counts can cross the
one-photon bounds (lower > upper); callers treat that as infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bb84mm.stat_bounds import _checked_number, _Record, hoeffding_decoy_dev

__all__ = [
    "DecoyConfig",
    "OutcomeCounts",
    "Observations",
    "photon_given_intensity",
    "tau",
    "intensity_given_photon",
    "shifted_counts",
    "decoy_bounds",
    "bound_vacuum_lower",
    "bound_single_lower",
    "bound_single_upper",
]

@dataclass(frozen=True)
class DecoyConfig(_Record):
    """Intensities mu1 > mu2 + mu3, mu2 > mu3 >= 0, each at most 100 (the
    bounds' exp(mu) stays far from overflow), and their probabilities."""

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
        if abs(sum(self.probabilities) - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {self.probabilities}")

    @classmethod
    def reference(cls) -> "DecoyConfig":
        """Three equiprobable intensities 0.9 / 0.1 / 0 (vacuum decoy)."""
        return cls(intensities=(0.9, 0.1, 0.0), probabilities=(1 / 3, 1 / 3, 1 / 3))


@dataclass(frozen=True)
class OutcomeCounts(_Record):
    """Per-intensity counts of one outcome class.

    Counts are integers in a protocol run; expectation pipelines may carry
    real values, which the bounds accept unchanged.
    """

    counts: tuple[float, float, float]

    _FIELDS = {"counts": (0.0, math.inf, tuple, "[]")}

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
    from the sampled key-basis test fraction.
    """

    n_x: tuple[float, float, float]
    n_k: tuple[float, float, float]
    e_x: tuple[float, float, float]
    e_z: float

    _FIELDS = {
        "n_x": (0.0, math.inf, tuple, "[]"), "n_k": (0.0, math.inf, tuple, "[]"),
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


def _poisson(m: int, mu: float) -> float:
    """``photon_given_intensity`` without the argument checks, for callers
    whose m and mu are already checked."""
    if mu == 0.0:
        return 1.0 if m == 0 else 0.0
    return math.exp(m * math.log(mu) - mu - math.lgamma(m + 1))


def photon_given_intensity(m: int, mu: float) -> float:
    """Poisson mass p(m | mu) = exp(-mu) mu^m / m!."""
    m = _checked_number("m", m, 0, math.inf, int)
    return _poisson(m, _checked_number("mu", mu, 0.0, math.inf))


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


def shifted_counts(
    counts: OutcomeCounts, cfg: DecoyConfig, eps_sq: float
) -> tuple[np.ndarray, np.ndarray]:
    """Hoeffding-shifted per-intensity counts (plus, minus).

    Each observed count is widened by the deviation term for the outcome
    total, then rescaled by exp(mu_k)/p_k; the minus branch is clamped at 0.
    """
    t = hoeffding_decoy_dev(counts.total, eps_sq)
    n = np.asarray(counts.counts, dtype=float)
    scale = np.exp(cfg.intensities) / np.asarray(cfg.probabilities)
    plus = scale * (n + t)
    minus = np.maximum(0.0, scale * (n - t))
    return plus, minus


def decoy_bounds(
    counts: OutcomeCounts, cfg: DecoyConfig, eps_sq: float
) -> tuple[float, float, float]:
    """(zero-photon lower, one-photon lower, one-photon upper) bounds on the
    outcome class, from one Hoeffding shift of its per-intensity counts."""
    mu1, mu2, mu3 = cfg.intensities
    plus, minus = (v.tolist() for v in shifted_counts(counts, cfg, eps_sq))
    tau0, tau1 = tau(0, cfg), tau(1, cfg)

    def clamp(raw: float) -> float:
        return float(min(counts.total, max(0.0, raw)))

    vac = clamp(tau0 * (mu2 * minus[2] - mu3 * plus[1]) / (mu2 - mu3))
    denom = mu1 * (mu2 - mu3) - mu2**2 + mu3**2
    single_lower = clamp(
        (mu1 * tau1 / denom)
        * (minus[1] - plus[2] - (mu2**2 - mu3**2) / mu1**2 * (plus[0] - vac / tau0))
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
