"""Final key-length formulas and epsilon accounting.

Variable-length decisions: every observation maps to a key length (aborting
is length zero), with the error-correction allowance f_ec * n_key * h(e_z)
computed from the observations.  ``key_length_decoy`` composes the decoy
bounds on the single-photon counts with the mismatch phase-error bound.
Lengths are in bits, logs base 2, and non-integer hash lengths are floored
(conservative).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from bb84mm.decoy import DecoyConfig, Observations, decoy_bounds
from bb84mm.detector_model import DeltaPair
from bb84mm.phase_error import PhaseErrorQuery, bound_mismatch
from bb84mm.stat_bounds import _checked_number, _Record

__all__ = [
    "EpsilonBudget",
    "KeyDecision",
    "binary_entropy",
    "lambda_ec_default",
    "key_length_decoy",
]

DEFAULT_EC_EFFICIENCY = 1.16


def binary_entropy(x: float) -> float:
    """Binary entropy in bits for x <= 1/2; saturates at 1 beyond."""
    _checked_number("x", x, 0.0, 1.0)
    if x > 0.5:
        return 1.0
    if x == 0.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _ec_efficiency(f_ec: float = DEFAULT_EC_EFFICIENCY) -> float:
    """``f_ec``, checked: a finite number >= 1."""
    return _checked_number("f_ec", f_ec, 1.0, math.inf, float, "[)")


def lambda_ec_default(n_key: float, e_z: float, f_ec: float = DEFAULT_EC_EFFICIENCY) -> float:
    """Error-correction allowance f_ec * n_key * h(e_z)."""
    _checked_number("n_key", n_key, 0.0, math.inf)
    _checked_number("e_z", e_z, 0.0, 1.0)
    return float(_ec_efficiency(f_ec) * n_key * binary_entropy(e_z))


@dataclass(frozen=True)
class EpsilonBudget(_Record):
    """The epsilon components of the security parameter.

    The acceptance-test epsilon combines in quadrature: nine decoy
    deviations (eps_at_d each) plus the three sampling deviations.  The
    protocol is (2*eps_at + eps_pa + eps_ev)-secure.
    """

    eps_at_a: float = 1e-12
    eps_at_b: float = 1e-12
    eps_at_c: float = 1e-12
    eps_at_d: float = 1e-12
    eps_ev: float = 1e-12
    eps_pa: float = 1e-12

    _FIELDS = dict.fromkeys(
        ("eps_at_a", "eps_at_b", "eps_at_c", "eps_at_d", "eps_ev", "eps_pa"),
        (0.0, 1.0, float, "()"),
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        # The acceptance-test epsilons enter the bounds squared, and a
        # subnormal square overflows 2/eps_sq in the deviations.
        for name in ("eps_at_a", "eps_at_b", "eps_at_c", "eps_at_d"):
            v = getattr(self, name)
            if v * v < sys.float_info.min:
                raise ValueError(f"{name} squared underflows below {sys.float_info.min:g}, got {v}")

    @classmethod
    def equal(cls, eps: float) -> "EpsilonBudget":
        return cls(eps, eps, eps, eps, eps, eps)

    @property
    def eps_at_single(self) -> float:
        """Acceptance-test epsilon for the single-photon-source protocol."""
        return math.sqrt(self.eps_at_a**2 + self.eps_at_b**2 + self.eps_at_c**2)

    @property
    def eps_at_decoy(self) -> float:
        """Acceptance-test epsilon for the decoy protocol."""
        return math.sqrt(
            9.0 * self.eps_at_d**2 + self.eps_at_a**2 + self.eps_at_b**2 + self.eps_at_c**2
        )

    def security_parameter(self, decoy: bool = True) -> float:
        eps_at = self.eps_at_decoy if decoy else self.eps_at_single
        return 2.0 * eps_at + self.eps_pa + self.eps_ev


@dataclass(frozen=True)
class KeyDecision:
    """Outcome of the variable-length decision for one observation record."""

    key_length: int
    lambda_ec: float
    phase_bound: float
    feasible: bool

    def __post_init__(self) -> None:
        if not self.feasible and self.key_length != 0:
            raise ValueError("infeasible decisions must carry key_length 0")


def _decide(key_bits: float, q: PhaseErrorQuery, budget: EpsilonBudget, lam: float) -> KeyDecision:
    """l = max(0, floor(key_bits (1 - h(B)) - lambda_ec - 2 log2(1/(2 eps_pa))
    - log2(2/eps_ev))), with B the mismatch phase-error bound of ``q``; each
    penalty is finite for every epsilon in (0, 1), and an overflowed
    lambda_ec gives 0."""
    phase_bound = float(bound_mismatch(q).value)
    hash_penalties = -2.0 * math.log2(2.0 * budget.eps_pa) + 1.0 - math.log2(budget.eps_ev)
    raw = key_bits * (1.0 - binary_entropy(phase_bound)) - lam - hash_penalties
    return KeyDecision(math.floor(raw) if raw >= 1.0 else 0, lam, phase_bound, feasible=True)


def key_length_decoy(
    obs: Observations,
    cfg: DecoyConfig,
    deltas: DeltaPair,
    budget: EpsilonBudget,
    f_ec: float = DEFAULT_EC_EFFICIENCY,
) -> KeyDecision:
    """Key length for the decoy-state protocol, from the single-photon
    component only: key_bits is the one-photon lower bound on the key counts.

    The single-photon error rate is bounded by the ratio of the one-photon
    upper bound on X-error counts to the one-photon lower bound on X counts;
    the floored one-photon lower bounds on X and key counts feed the
    deviation terms (they are non-increasing in the counts, so flooring is
    conservative).  Total failure budget: 9*eps_at_d^2 for the nine decoy
    deviations plus eps_a^2 + eps_b^2 + eps_c^2 for the sampling chain.

    A one-photon lower bound <= 0 or a crossed one-photon interval on the
    X or key counts makes the run infeasible (key length 0).
    """
    lam = lambda_ec_default(sum(obs.n_k), obs.e_z, f_ec)
    eps_d_sq = budget.eps_at_d**2
    _, test_lower, test_upper = decoy_bounds(obs.counts_x(), cfg, eps_d_sq)
    _, _, err_upper = decoy_bounds(obs.counts_x_err(), cfg, eps_d_sq)
    _, key_lower, key_upper = decoy_bounds(obs.counts_k(), cfg, eps_d_sq)
    if test_lower <= 0.0 or key_lower <= 0.0 or not (
        test_lower <= test_upper and key_lower <= key_upper
    ):
        return KeyDecision(0, lam, 1.0, feasible=False)
    e1_upper = min(1.0, err_upper / test_lower)
    eps = (budget.eps_at_a**2, budget.eps_at_b**2, budget.eps_at_c**2)
    q = PhaseErrorQuery(e1_upper, math.floor(test_lower), math.floor(key_lower), deltas, *eps)
    return _decide(key_lower, q, budget, lam)
