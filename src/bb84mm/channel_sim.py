"""Honest-channel statistics for the decoy protocol.

Models a lossy channel with a fixed polarization misalignment theta feeding
two identical threshold detectors (efficiency eta_det, dark-count
probability d).  Each source photon independently survives the channel and
is detected in the correct or the rotated-off mode with probability

    f_ok = eta_ch cos^2(theta) eta_det,   f_bad = eta_ch sin^2(theta) eta_det.

Both photon laws share one outcome model.  ``_outcome_rates`` turns the
probabilities that the modes stay silent into the (conclusive, error)
probabilities of a matched-basis round, ``_class_rates`` splits them into
the five recorded outcome classes of one round, and ``_record`` reads the
observation record from per-intensity class counts.  Only the law of
silence differs between the two uses:

    exactly m source photons:   (1 - f)^m
    Poisson intensity mu:       exp(-mu f)

``expected_observations`` returns exact expectation values (Poisson law);
``sample_observations`` draws a full protocol run in three aggregate
multinomials over (intensity, source photon number, outcome class) with the
fixed-m law, optionally keeping the per-photon-number tags the decoy Monte
Carlo tests need.  Its two tables are cached properties of what they depend
on alone, built on first use: the photon-number pmf of the ``DecoyConfig``
and the outcome-class table of the ``ChannelSpec``, so runs that reuse a
channel (tolerance curves, repeated seeds) rebuild neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from bb84mm.decoy import PHOTON_CUTOFF, DecoyConfig, Observations
from bb84mm.detector_model import DetectorSpec
from bb84mm.stat_bounds import _checked_number, _Record

__all__ = [
    "ChannelSpec",
    "PhotonTags",
    "expected_observations",
    "sample_observations",
]


@dataclass(frozen=True)
class ChannelSpec(_Record):
    """Honest channel plus protocol probabilities.

    ``transmissivity`` is the channel transmission (loss in dB maps to
    10^(-dB/10)); ``misalignment_deg`` rotates every photon's polarization
    between Alice's and Bob's mode bases.  The detector is used at its
    nominal efficiency and dark-count rate.  Each party picks the X basis
    with the probability left by Z, so ``p_x_alice`` and ``p_x_bob`` are
    derived, not set.  ``n_total`` is at most 1e24, where the decision's
    binomial quantiles still keep their 1/sqrt(n) scale.
    """

    transmissivity: float
    misalignment_deg: float
    detector: DetectorSpec
    n_total: int
    p_z_alice: float = 0.5
    p_z_bob: float = 0.5
    p_z_test: float = 0.05

    _FIELDS = {
        "transmissivity": (0.0, 1.0, float, "(]"), "n_total": (1, 10**24, int, "[]"),
        "misalignment_deg": (-math.inf, math.inf, float, "[]"),
        **dict.fromkeys(("p_z_alice", "p_z_bob", "p_z_test"), (0.0, 1.0, float, "()")),
    }

    p_x_alice = property(lambda self: 1.0 - self.p_z_alice)
    p_x_bob = property(lambda self: 1.0 - self.p_z_bob)

    @cached_property
    def _class_table(self) -> np.ndarray:
        """Outcome-class probabilities of one round given m source photons, shape
        (PHOTON_CUTOFF + 1, 6): the classes of ``_class_rates`` and none of these.
        Kept like ``DecoyConfig._photon_pmf`` (not a field) and read-only."""
        f_ok, f_bad = _detection_probs(self)
        m = np.arange(PHOTON_CUTOFF + 1)
        silent = ((1.0 - f_ok) ** m, (1.0 - f_bad) ** m, (1.0 - f_ok - f_bad) ** m)
        table = np.stack(_class_rates(self, *silent), axis=1)
        table = np.column_stack([table, np.maximum(0.0, 1.0 - table.sum(axis=1))])
        table.flags.writeable = False
        return table

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

    x: np.ndarray
    x_err: np.ndarray
    k: np.ndarray


def _outcome_rates(silent_ok, silent_bad, silent_both, d):
    """(conclusive, error) probabilities of a matched-basis round,
    elementwise on scalars and arrays.

    ``silent_ok``/``silent_bad``: no photon detected in the correct / the
    wrong detector's mode; ``silent_both``: in neither (the modes are
    independent only under Poisson splitting, so it is supplied
    separately); ``d``: each detector's dark-count probability.  Double
    clicks count half as errors.  The error is clipped to [0, conclusive]:
    at zero misalignment and zero dark counts it rounds to about -5e-17.
    ``np.minimum``/``np.maximum`` stand in for ``np.clip``, which costs
    several times more on scalars.
    """
    s_ok = (1.0 - d) * silent_ok
    s_bad = (1.0 - d) * silent_bad
    both_silent = (1.0 - d) * (1.0 - d) * silent_both
    conclusive = 1.0 - both_silent
    error = (s_ok - both_silent) + 0.5 * (1.0 - s_ok - s_bad + both_silent)
    return conclusive, np.minimum(np.maximum(error, 0.0), conclusive)


def _detection_probs(ch: ChannelSpec) -> tuple[float, float]:
    """Probabilities that one source photon is detected in the correct and
    in the wrong detector's mode (channel, misalignment, efficiency)."""
    theta = math.radians(ch.misalignment_deg)
    eta = ch.detector.eta_det
    return (
        ch.transmissivity * math.cos(theta) ** 2 * eta,
        ch.transmissivity * math.sin(theta) ** 2 * eta,
    )


def _class_rates(ch: ChannelSpec, silent_ok, silent_bad, silent_both) -> tuple:
    """Probabilities of the five recorded outcome classes of one round,
    elementwise in the silences of ``_outcome_rates``: X error, X correct,
    key, key-basis test error and key-basis test correct.  Both bases share
    the click statistics: the honest detectors are identical."""
    con, err = _outcome_rates(silent_ok, silent_bad, silent_both, ch.detector.d_det)
    px, pz, pt = ch.p_x_alice * ch.p_x_bob, ch.p_z_alice * ch.p_z_bob, ch.p_z_test
    return px * err, px * (con - err), pz * con * (1.0 - pt), pz * err * pt, pz * (con - err) * pt


def _record(x_err, x_ok, key, t_err, t_ok) -> Observations:
    """The observation record, as plain floats, from per-intensity counts
    of the five classes of ``_class_rates``: per-intensity X counts and
    error rates, key counts without the test fraction, and the key-basis
    error rate pooled over intensities.  A rate with no counts is 0."""
    n_x = [float(e + o) for e, o in zip(x_err, x_ok)]
    z_err, z_test = float(sum(t_err)), float(sum(t_err) + sum(t_ok))
    return Observations(
        n_x=tuple(n_x),
        n_k=tuple(map(float, key)),
        e_x=tuple(float(e) / n if n > 0 else 0.0 for e, n in zip(x_err, n_x)),
        e_z=z_err / z_test if z_test > 0 else 0.0,
    )


def expected_observations(ch: ChannelSpec, cfg: DecoyConfig) -> Observations:
    """Exact expected observation record (real-valued counts)."""
    f_ok, f_bad = _detection_probs(ch)
    counts = []
    for mu, p_mu in zip(cfg.intensities, cfg.probabilities):
        silent = (math.exp(-mu * f_ok), math.exp(-mu * f_bad), math.exp(-mu * (f_ok + f_bad)))
        counts.append([ch.n_total * p_mu * r for r in _class_rates(ch, *silent)])
    return _record(*zip(*counts))


def sample_observations(
    ch: ChannelSpec,
    cfg: DecoyConfig,
    seed: int,
    with_tags: bool = False,
) -> Observations | tuple[Observations, PhotonTags]:
    """One sampled protocol run, deterministic given the seed.

    Three aggregate multinomial draws: the rounds over intensities, each
    intensity's rounds over source photon numbers, and each (intensity,
    photon number) cell over the outcome classes of the channel's
    ``ChannelSpec._class_table``, one table for both bases.  Memory is
    O(intensities * PHOTON_CUTOFF) for any n_total up to the int64 maximum.
    Photon numbers above PHOTON_CUTOFF share the top bucket of the config's
    photon pmf (``DecoyConfig._photon_pmf``), which rejects intensities with
    more Poisson mass there than ``decoy.MAX_TAIL``.  Both tables are built
    on the first run with their channel or config and reused after it.
    With ``with_tags`` the true per-photon-number counts of the X, X-error
    and key classes are returned alongside (unobservable in a real run; the
    decoy validation tests need them).  ``seed`` must be an integer >= 0.
    """
    seed = _checked_number("seed", seed, 0, math.inf, int)
    if ch.n_total > np.iinfo(np.int64).max:
        raise ValueError(f"n_total must be at most {np.iinfo(np.int64).max} to sample, got {ch.n_total}")
    pmf = cfg._photon_pmf
    rng = np.random.default_rng(seed)
    per_intensity = rng.multinomial(ch.n_total, cfg.probabilities)
    per_photon = rng.multinomial(per_intensity, pmf)
    counts = rng.multinomial(per_photon, ch._class_table).astype(float)

    obs = _record(*counts.sum(axis=1)[:, :5].T.tolist())
    if not with_tags:
        return obs
    by_photon = counts.sum(axis=0)
    tags = PhotonTags(x=by_photon[:, 0] + by_photon[:, 1], x_err=by_photon[:, 0], k=by_photon[:, 2])
    return obs, tags
