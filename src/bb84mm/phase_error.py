"""Phase-error-rate upper bounds.

``bound_perfect`` handles basis-independent loss (pure Serfling penalty);
``bound_mismatch`` adds the detector-mismatch corrections delta1/delta2 with
their binomial-tail deviations.  The decoy-state key length feeds it the
single-photon bounds (see :func:`bb84mm.keyrate.key_length_decoy`).

A bound of 1 is vacuous but always valid (downstream entropy saturates at 1
bit), so every failure mode degrades to 1 rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from bb84mm.detector_model import DeltaPair
from bb84mm.stat_bounds import _checked_number, _Record, binomial_quantile, gamma_serf

__all__ = [
    "PhaseErrorQuery",
    "MismatchBound",
    "bound_perfect",
    "bound_mismatch",
]


@dataclass(frozen=True)
class PhaseErrorQuery(_Record):
    """Inputs of the mismatch phase-error bound.

    ``eps_a_sq`` pays for the Serfling step, ``eps_b_sq`` for transferring
    frequencies between the two filtered error operators (delta1), and
    ``eps_c_sq`` for the key-round discard fraction (delta2).
    """

    e_obs: float
    n_test: int
    n_key: int
    deltas: DeltaPair
    eps_a_sq: float
    eps_b_sq: float
    eps_c_sq: float

    _FIELDS = {
        "e_obs": (0.0, 1.0, float, "[]"), "n_test": (0, math.inf, int, "[]"),
        "n_key": (0, math.inf, int, "[]"),
        **dict.fromkeys(("eps_a_sq", "eps_b_sq", "eps_c_sq"), (0.0, 1.0, float, "()")),
    }


@dataclass(frozen=True)
class MismatchBound:
    """Phase-error bound value plus a vacuity flag (denominator collapsed)."""

    value: float
    vacuous: bool


def bound_perfect(e_obs: float, n_test: int, n_key: int, eps_sq: float) -> float:
    """Phase-error bound under basis-independent loss: e_obs + gamma_serf."""
    rows = PhaseErrorQuery._FIELDS
    _checked_number("e_obs", e_obs, *rows["e_obs"])
    _checked_number("n_test", n_test, *rows["n_test"])
    _checked_number("n_key", n_key, *rows["n_key"])
    _checked_number("eps_sq", eps_sq, 0.0, 1.0, float, "(]")
    if n_test < 1 or n_key < 1:
        return 1.0
    return min(1.0, e_obs + gamma_serf(n_test, n_key, eps_sq))


def bound_mismatch(q: PhaseErrorQuery) -> MismatchBound:
    """Phase-error bound in the presence of basis-efficiency mismatch.

    (e_obs + gamma_serf + delta1 + gamma_bin(n_key, delta1))
    / (1 - delta2 - gamma_bin(n_key, delta2)),

    capped at 1.  A non-positive denominator means the discard fraction
    cannot be controlled; the bound is then vacuous (1).  Each
    delta + gamma_bin is formed as max(delta, binomial quantile), which keeps
    the bound non-decreasing in delta1 and delta2 to the last bit.
    """
    if q.n_test < 1 or q.n_key < 1:
        return MismatchBound(1.0, vacuous=True)
    d1 = q.deltas.delta1
    d2 = q.deltas.delta2
    numer = (
        q.e_obs
        + gamma_serf(q.n_test, q.n_key, q.eps_a_sq)
        + max(d1, binomial_quantile(q.n_key, min(d1, 1.0), q.eps_b_sq))
    )
    denom = 1.0 - max(d2, binomial_quantile(q.n_key, d2, q.eps_c_sq))
    if denom <= 0.0:
        return MismatchBound(1.0, vacuous=True)
    return MismatchBound(min(1.0, numer / denom), vacuous=False)

