"""Finite-size variable-length key rates for decoy-state BB84 with
imperfectly characterized detectors.

The package is organized bottom-up:

* :mod:`bb84mm.stat_bounds` -- binomial tail, its inverse, Serfling and
  Hoeffding deviations.
* :mod:`bb84mm.detector_model` -- threshold-detector POVM blocks and the
  mismatch metrics delta1/delta2 (closed form and numeric oracle).
* :mod:`bb84mm.decoy` -- three-intensity decoy bounds on zero/one-photon
  counts.
* :mod:`bb84mm.phase_error` -- phase-error-rate upper bounds for given
  test/key counts and mismatch metrics.
* :mod:`bb84mm.keyrate` -- the one path from observations to a key length:
  decoy bounds, phase-error bound, the key-length formula and epsilon
  accounting.
* :mod:`bb84mm.channel_sim` -- honest-channel statistics (expected and
  sampled).
* :mod:`bb84mm.mc_verify` -- Monte Carlo validation of the concentration
  bounds on classical surrogates.
* :mod:`bb84mm.cli` -- command-line front end.
"""

from bb84mm.channel_sim import ChannelSpec, expected_observations, sample_observations
from bb84mm.decoy import (
    DecoyConfig,
    Observations,
    OutcomeCounts,
    bound_single_lower,
    bound_single_upper,
    bound_vacuum_lower,
    decoy_bounds,
)
from bb84mm.detector_model import DeltaPair, DetectorSpec, closed_form_deltas, oracle_deltas
from bb84mm.keyrate import EpsilonBudget, KeyDecision, key_length_decoy, key_length_single_photon
from bb84mm.phase_error import PhaseErrorQuery, bound_mismatch, bound_perfect
from bb84mm.stat_bounds import TailQuery, binomial_tail, gamma_bin, gamma_serf, hoeffding_decoy_dev

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "DecoyConfig",
    "DeltaPair",
    "DetectorSpec",
    "EpsilonBudget",
    "KeyDecision",
    "Observations",
    "OutcomeCounts",
    "PhaseErrorQuery",
    "TailQuery",
    "binomial_tail",
    "bound_mismatch",
    "bound_perfect",
    "bound_single_lower",
    "bound_single_upper",
    "bound_vacuum_lower",
    "closed_form_deltas",
    "decoy_bounds",
    "expected_observations",
    "gamma_bin",
    "gamma_serf",
    "hoeffding_decoy_dev",
    "key_length_decoy",
    "key_length_single_photon",
    "oracle_deltas",
    "sample_observations",
]
