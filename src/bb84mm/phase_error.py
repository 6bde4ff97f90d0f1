"""Phase-error-rate upper bounds.

``bound_perfect`` handles basis-independent loss (pure Serfling penalty);
``bound_mismatch`` adds the detector-mismatch corrections delta1/delta2 with
their binomial-tail deviations.  The decoy-state key length feeds it the
single-photon bounds (see :func:`bb84mm.keyrate.key_length_decoy`).

A bound of 1 is vacuous but always valid (downstream entropy saturates at 1
bit), so every failure mode degrades to 1 rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass

from bb84mm.detector_model import DeltaPair
from bb84mm.stat_bounds import gamma_bin, gamma_serf

__all__ = [
    "PhaseErrorQuery",
    "MismatchBound",
    "bound_perfect",
    "bound_mismatch",
]


@dataclass(frozen=True)
class PhaseErrorQuery:
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

    def __post_init__(self) -> None:
        if not 0.0 <= self.e_obs <= 1.0:
            raise ValueError(f"e_obs must lie in [0, 1], got {self.e_obs}")
        for name in ("eps_a_sq", "eps_b_sq", "eps_c_sq"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


@dataclass(frozen=True)
class MismatchBound:
    """Phase-error bound value plus a vacuity flag (denominator collapsed)."""

    value: float
    vacuous: bool


def bound_perfect(e_obs: float, n_test: int, n_key: int, eps_sq: float) -> float:
    """Phase-error bound under basis-independent loss: e_obs + gamma_serf."""
    if n_test < 1 or n_key < 1:
        return 1.0
    return min(1.0, e_obs + gamma_serf(n_test, n_key, eps_sq))


def bound_mismatch(q: PhaseErrorQuery) -> MismatchBound:
    """Phase-error bound in the presence of basis-efficiency mismatch.

    (e_obs + gamma_serf + delta1 + gamma_bin(n_key, delta1))
    / (1 - delta2 - gamma_bin(n_key, delta2)),

    capped at 1.  A non-positive denominator means the discard fraction
    cannot be controlled; the bound is then vacuous (1).
    """
    if q.n_test < 1 or q.n_key < 1:
        return MismatchBound(1.0, vacuous=True)
    d1 = q.deltas.delta1
    d2 = q.deltas.delta2
    numer = (
        q.e_obs
        + gamma_serf(q.n_test, q.n_key, q.eps_a_sq)
        + d1
        + gamma_bin(q.n_key, min(d1, 1.0), q.eps_b_sq)
    )
    denom = 1.0 - d2 - gamma_bin(q.n_key, d2, q.eps_c_sq)
    if denom <= 0.0:
        return MismatchBound(1.0, vacuous=True)
    return MismatchBound(min(1.0, numer / denom), vacuous=False)

