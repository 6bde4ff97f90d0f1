"""Honest-channel statistics for the decoy protocol.

Models a lossy channel with a fixed polarization misalignment feeding the
threshold-detector setup.  Phase-randomized pulses are exact Poisson
photon-number mixtures; each photon independently survives the channel and
lands in the correct or rotated-off detector mode, so all click
probabilities close over the Poisson mixture analytically:

    P(detector silent | m photons) = (1 - d) (1 - eta_det eta_ch q)^m
    E_m[...] = (1 - d) exp(-mu eta_det eta_ch q)

``expected_observations`` returns exact expectation values (deterministic);
``sample_observations`` draws a full protocol run by multinomial sampling
over (intensity, source photon number, outcome class), optionally keeping
the per-photon-number tags the decoy Monte Carlo tests need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from bb84mm.decoy import DecoyConfig, Observations, photon_given_intensity
from bb84mm.detector_model import DetectorSpec

__all__ = [
    "ChannelSpec",
    "PhotonTags",
    "expected_observations",
    "sample_observations",
]

# Source photon numbers above this are lumped into the top bucket; at
# mu <= 1 the Poisson tail mass beyond 30 is < 1e-30.
PHOTON_CUTOFF = 30

# Outcome classes of a single round, in sampling order.
_CLASSES = ("x_err", "x_ok", "k", "z_test_err", "z_test_ok", "none")


@dataclass(frozen=True)
class ChannelSpec:
    """Honest channel plus protocol probabilities.

    ``transmissivity`` is the channel transmission (loss in dB maps to
    10^(-dB/10)); ``misalignment_deg`` rotates every photon's polarization
    between Alice's and Bob's mode bases.  The detector is used at its
    nominal efficiency and dark-count rate.
    """

    transmissivity: float
    misalignment_deg: float
    detector: DetectorSpec
    n_total: int
    p_z_alice: float = 0.5
    p_x_alice: float = 0.5
    p_z_bob: float = 0.5
    p_x_bob: float = 0.5
    p_z_test: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.transmissivity <= 1.0:
            raise ValueError(f"transmissivity must lie in (0, 1], got {self.transmissivity}")
        if not math.isfinite(self.misalignment_deg):
            raise ValueError(f"misalignment_deg must be finite, got {self.misalignment_deg}")
        # JSON configs express large round counts as floats (1e12)
        if isinstance(self.n_total, float):
            if not self.n_total.is_integer():
                raise ValueError(f"n_total must be a finite integer, got {self.n_total}")
            object.__setattr__(self, "n_total", int(self.n_total))
        if self.n_total < 1:
            raise ValueError(f"n_total must be >= 1, got {self.n_total}")
        for name in ("p_z_alice", "p_x_alice", "p_z_bob", "p_x_bob", "p_z_test"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")
        if abs(self.p_z_alice + self.p_x_alice - 1.0) > 1e-12:
            raise ValueError("Alice's basis probabilities must sum to 1")
        if abs(self.p_z_bob + self.p_x_bob - 1.0) > 1e-12:
            raise ValueError("Bob's basis probabilities must sum to 1")

    @classmethod
    def reference(cls, loss_db: float, n_total: int = 10**12, **overrides) -> "ChannelSpec":
        """The reference scenario: eta_det 0.7, dark rate 1e-6, 2 degrees
        misalignment, symmetric basis choices, 5% key-basis test fraction."""
        detector = overrides.pop("detector", DetectorSpec(eta_det=0.7, d_det=1e-6))
        return cls(
            transmissivity=10.0 ** (-loss_db / 10.0),
            misalignment_deg=2.0,
            detector=detector,
            n_total=n_total,
            **overrides,
        )


@dataclass
class PhotonTags:
    """True per-source-photon-number counts for each tracked outcome class,
    summed over intensities.  Index = photon number."""

    x: np.ndarray = field(default_factory=lambda: np.zeros(PHOTON_CUTOFF + 1))
    x_err: np.ndarray = field(default_factory=lambda: np.zeros(PHOTON_CUTOFF + 1))
    k: np.ndarray = field(default_factory=lambda: np.zeros(PHOTON_CUTOFF + 1))


def _conclusive_and_error(
    silent_corr: float,
    silent_wrong: float,
    both_silent_mult: float,
    d_corr: float,
    d_wrong: float,
) -> tuple[float, float]:
    """Conclusive and error probabilities for one Alice bit.

    ``silent_corr``/``silent_wrong`` are the per-detector no-fire
    probabilities excluding dark counts; ``both_silent_mult`` is the joint
    no-fire probability (the mode occupations are independent only under
    Poisson splitting, so the joint term is supplied separately).  Double
    clicks contribute half their weight to the error.
    """
    s_corr = (1.0 - d_corr) * silent_corr
    s_wrong = (1.0 - d_wrong) * silent_wrong
    both_silent = (1.0 - d_corr) * (1.0 - d_wrong) * both_silent_mult
    conclusive = 1.0 - both_silent
    only_wrong_fires = s_corr - both_silent
    double = 1.0 - s_corr - s_wrong + both_silent
    error = only_wrong_fires + 0.5 * double
    return conclusive, error


def _basis_stats_poisson(
    mu: float, eta_ch: float, theta: float, eta0: float, eta1: float, d0: float, d1: float
) -> tuple[float, float]:
    """(conclusive, error) probabilities for matched-basis rounds at
    intensity mu, averaged over Alice's bit."""
    q_ok = math.cos(theta) ** 2
    q_bad = math.sin(theta) ** 2
    totals = np.zeros(2)
    for bit in (0, 1):
        eta_corr, eta_wrong = (eta0, eta1) if bit == 0 else (eta1, eta0)
        d_corr, d_wrong = (d0, d1) if bit == 0 else (d1, d0)
        fire_corr = eta_ch * q_ok * eta_corr
        fire_wrong = eta_ch * q_bad * eta_wrong
        totals += _conclusive_and_error(
            math.exp(-mu * fire_corr),
            math.exp(-mu * fire_wrong),
            math.exp(-mu * (fire_corr + fire_wrong)),
            d_corr,
            d_wrong,
        )
    return totals[0] / 2.0, totals[1] / 2.0


def _basis_stats_fixed_m(
    m: int, eta_ch: float, theta: float, eta0: float, eta1: float, d0: float, d1: float
) -> tuple[float, float]:
    """(conclusive, error) probabilities given exactly m source photons."""
    q_ok = math.cos(theta) ** 2
    q_bad = math.sin(theta) ** 2
    totals = np.zeros(2)
    for bit in (0, 1):
        eta_corr, eta_wrong = (eta0, eta1) if bit == 0 else (eta1, eta0)
        d_corr, d_wrong = (d0, d1) if bit == 0 else (d1, d0)
        fire_corr = eta_ch * q_ok * eta_corr
        fire_wrong = eta_ch * q_bad * eta_wrong
        totals += _conclusive_and_error(
            (1.0 - fire_corr) ** m,
            (1.0 - fire_wrong) ** m,
            (1.0 - fire_corr - fire_wrong) ** m,
            d_corr,
            d_wrong,
        )
    return totals[0] / 2.0, totals[1] / 2.0


def expected_observations(ch: ChannelSpec, cfg: DecoyConfig) -> Observations:
    """Exact expected observation record (real-valued counts).

    Per-intensity X counts and error rates; key counts exclude the sampled
    test fraction; the key-basis error estimate pools all intensities.
    """
    det = ch.detector
    theta = math.radians(ch.misalignment_deg)
    n_x, n_k, e_x = [], [], []
    z_err_w = z_con_w = 0.0
    for mu, p_mu in zip(cfg.intensities, cfg.probabilities):
        # honest detectors are identical, so both bases share the stats
        con, err = _basis_stats_poisson(
            mu, ch.transmissivity, theta, det.eta_det, det.eta_det, det.d_det, det.d_det
        )
        n_x.append(ch.n_total * p_mu * ch.p_x_alice * ch.p_x_bob * con)
        e_x.append(err / con if con > 0 else 0.0)
        n_k.append(ch.n_total * p_mu * ch.p_z_alice * ch.p_z_bob * con * (1.0 - ch.p_z_test))
        z_err_w += p_mu * err
        z_con_w += p_mu * con
    e_z = z_err_w / z_con_w if z_con_w > 0 else 0.0
    return Observations(n_x=tuple(n_x), n_k=tuple(n_k), e_x=tuple(e_x), e_z=e_z)


def _class_probs(ch: ChannelSpec, m: int) -> np.ndarray:
    """Per-round outcome-class probabilities given m source photons."""
    det = ch.detector
    theta = math.radians(ch.misalignment_deg)
    con_x, err_x = _basis_stats_fixed_m(
        m, ch.transmissivity, theta, det.eta_det, det.eta_det, det.d_det, det.d_det
    )
    con_z, err_z = con_x, err_x  # honest detectors are basis-symmetric
    px = ch.p_x_alice * ch.p_x_bob
    pz = ch.p_z_alice * ch.p_z_bob
    probs = np.array(
        [
            px * err_x,
            px * (con_x - err_x),
            pz * con_z * (1.0 - ch.p_z_test),
            pz * err_z * ch.p_z_test,
            pz * (con_z - err_z) * ch.p_z_test,
            0.0,
        ]
    )
    probs[-1] = max(0.0, 1.0 - probs[:-1].sum())
    return probs


def sample_observations(
    ch: ChannelSpec,
    cfg: DecoyConfig,
    seed: int,
    with_tags: bool = False,
) -> Observations | tuple[Observations, PhotonTags]:
    """One sampled protocol run, deterministic given the seed.

    Sampling is streamed through aggregate multinomials -- intensities,
    then source photon numbers, then outcome classes -- so arbitrarily
    large n_total costs O(intensities * photon cutoff) memory.  With
    ``with_tags`` the true per-photon-number counts of the X, X-error and
    key classes are returned alongside (these are unobservable in a real
    run; the decoy validation tests need them).
    """
    rng = np.random.default_rng(seed)
    per_intensity = rng.multinomial(ch.n_total, cfg.probabilities)

    class_probs = np.stack([_class_probs(ch, m) for m in range(PHOTON_CUTOFF + 1)])
    tags = PhotonTags()
    x_err = np.zeros(3)
    x_ok = np.zeros(3)
    k = np.zeros(3)
    z_test_err = z_test_tot = 0.0

    for idx, (mu, n_mu) in enumerate(zip(cfg.intensities, per_intensity)):
        pmf = np.array([photon_given_intensity(m, mu) for m in range(PHOTON_CUTOFF + 1)])
        pmf[-1] += max(0.0, 1.0 - pmf.sum())
        per_photon = rng.multinomial(int(n_mu), pmf)
        for m, n_m in enumerate(per_photon):
            if n_m == 0:
                continue
            counts = rng.multinomial(int(n_m), class_probs[m])
            x_err[idx] += counts[0]
            x_ok[idx] += counts[1]
            k[idx] += counts[2]
            z_test_err += counts[3]
            z_test_tot += counts[3] + counts[4]
            if with_tags:
                tags.x[m] += counts[0] + counts[1]
                tags.x_err[m] += counts[0]
                tags.k[m] += counts[2]

    n_x = x_err + x_ok
    e_x = np.divide(x_err, n_x, out=np.zeros(3), where=n_x > 0)
    obs = Observations(
        n_x=tuple(n_x),
        n_k=tuple(k),
        e_x=tuple(e_x),
        e_z=z_test_err / z_test_tot if z_test_tot > 0 else 0.0,
    )
    return (obs, tags) if with_tags else obs
