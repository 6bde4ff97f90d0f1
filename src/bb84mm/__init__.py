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

Each name is imported from its module; the package itself loads nothing,
so ``import bb84mm`` does not import numpy or scipy.
"""

__version__ = "0.1.0"
