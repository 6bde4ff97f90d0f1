"""Threshold-detector POVM model and the mismatch metrics delta1/delta2.

Bob holds two threshold detectors per basis; double clicks are assigned to
0/1 by a fair coin.  Every operator is block-diagonal in the total photon
number N, so each block (Alice qubit tensor Bob's N-photon two-mode
subspace, dimension 2(N+1)) can be handled independently.

Two routes to the mismatch metrics:

* ``closed_form_deltas`` -- analytic worst-case bounds over the detector
  tolerance box, in terms of the extreme efficiencies and dark-count rates.
* ``oracle_deltas`` -- direct numeric evaluation: build the filtered POVM
  blocks, take infinity norms by eigenvalue, maximize over photon blocks and
  tolerance-box corners (plus interior samples as an implementation check).

The oracle is definitionally tighter (the closed form pays a triangle
inequality), so oracle <= closed form component-wise is a tested invariant.
Key rates use the closed form.

Within each block the X-basis operators are expressed in the Z-mode Fock
basis by conjugating with the N-photon representation of the 50/50 mode
rotation (the spin-N/2 rotation matrix at angle pi/2), so operators from
both bases live in one common matrix basis.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DetectorSpec",
    "DeltaPair",
    "PovmBlock",
    "mode_rotation_unitary",
    "build_block_povm",
    "build_block_povms",
    "block_deltas",
    "closed_form_deltas",
    "oracle_deltas",
]

# Eigenvalues below this are treated as exact zeros in pseudo-inverses.
EIGEN_TOL = 1e-12

# Hard cap on the per-block photon number; factorial-based rotation entries
# stay well-conditioned far beyond the physically relevant range.
MAX_BLOCK_PHOTONS = 64


@dataclass(frozen=True)
class DetectorSpec:
    """Nominal detector parameters with relative characterization tolerances.

    Each of the four detectors (two bases times two outcomes) has an
    efficiency in [eta_det(1-delta_eta), eta_det(1+delta_eta)] and a
    dark-count probability in [d_det(1-delta_dc), d_det(1+delta_dc)].
    """

    eta_det: float
    d_det: float
    delta_eta: float = 0.0
    delta_dc: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.eta_det <= 1.0:
            raise ValueError(f"eta_det must lie in (0, 1], got {self.eta_det}")
        if not 0.0 <= self.d_det < 1.0:
            raise ValueError(f"d_det must lie in [0, 1), got {self.d_det}")
        if not 0.0 <= self.delta_eta <= 1.0:
            raise ValueError(f"delta_eta must lie in [0, 1], got {self.delta_eta}")
        if not 0.0 <= self.delta_dc <= 1.0:
            raise ValueError(f"delta_dc must lie in [0, 1], got {self.delta_dc}")
        if self.eta_det * (1.0 + self.delta_eta) > 1.0 + 1e-12:
            raise ValueError("eta_det*(1+delta_eta) must not exceed 1")
        if self.d_det * (1.0 + self.delta_dc) >= 1.0:
            raise ValueError("d_det*(1+delta_dc) must stay below 1")

    @property
    def eta_min(self) -> float:
        return self.eta_det * (1.0 - self.delta_eta)

    @property
    def eta_max(self) -> float:
        return min(1.0, self.eta_det * (1.0 + self.delta_eta))

    @property
    def d_min(self) -> float:
        return self.d_det * (1.0 - self.delta_dc)

    @property
    def d_max(self) -> float:
        return self.d_det * (1.0 + self.delta_dc)

    @property
    def eta_ratio(self) -> float:
        """Worst relative efficiency after pulling common loss into the channel."""
        return self.eta_min / self.eta_max


@dataclass(frozen=True)
class DeltaPair:
    """The two mismatch metrics: delta1 (additive phase-error penalty) and
    delta2 (worst-case discard weight of the key-basis residual filter)."""

    delta1: float
    delta2: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta1 <= 4.0 or not 0.0 <= self.delta2 <= 1.0:
            raise ValueError(
                f"delta1 must lie in [0, 4] and delta2 in [0, 1], "
                f"got ({self.delta1}, {self.delta2})"
            )

    @classmethod
    def zero(cls) -> "DeltaPair":
        return cls(0.0, 0.0)


def closed_form_deltas(spec: DetectorSpec) -> DeltaPair:
    """Analytic worst-case (delta1, delta2) over the tolerance box.

    delta1 <= 4 max{1 - sqrt((1-(1-d_min)^2)/(1-(1-d_max)^2)),
                    1 - sqrt(1 - (1-d_min)^2 (1-eta_r))}
    delta2 <=   max{1 - (1-(1-d_min)^2)/(1-(1-d_max)^2),
                    (1-d_min)^2 (1-eta_r)}

    with eta_r = eta_min/eta_max.  When d_min = 0 but d_max > 0 the first
    branch is vacuous (ratio 0), driving delta1 to its cap of 4 and key
    rates to zero; a warning flags that regime.
    """
    d_min, d_max = spec.d_min, spec.d_max
    eta_r = spec.eta_ratio
    if d_max == 0.0:
        # No dark counts anywhere: the vacuum block is fully filtered out
        # and contributes nothing.
        dark_ratio = 1.0
    else:
        dark_ratio = (1.0 - (1.0 - d_min) ** 2) / (1.0 - (1.0 - d_max) ** 2)
        if d_min == 0.0:
            warnings.warn(
                "d_min = 0: the dark-count branch is vacuous (delta1 = 4) "
                "and the key rate is zero",
                stacklevel=2,
            )
    branch_dark_1 = 1.0 - math.sqrt(dark_ratio)
    branch_dark_2 = 1.0 - dark_ratio
    branch_eta_1 = 1.0 - math.sqrt(1.0 - (1.0 - d_min) ** 2 * (1.0 - eta_r))
    branch_eta_2 = (1.0 - d_min) ** 2 * (1.0 - eta_r)
    delta1 = min(4.0, 4.0 * max(branch_dark_1, branch_eta_1))
    delta2 = min(1.0, max(branch_dark_2, branch_eta_2))
    return DeltaPair(delta1, delta2)


def _wigner_d(n: int, beta: float) -> np.ndarray:
    """Spin-j rotation matrix d^j(beta) for j = n/2 in photon-number indexing.

    Index i along each axis counts photons in mode 1 (i.e. m = j - i), so
    column k holds the rotated basis state with k photons in mode 1.  All
    entries are real.
    """
    half = beta / 2.0
    c, s = math.cos(half), math.sin(half)
    # log |c|, log |s| guarded for exact zeros
    out = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for k in range(n + 1):
            # factorial prefactor sqrt((n-k)! k! (n-i)! i!)
            pref = 0.5 * (
                math.lgamma(n - k + 1)
                + math.lgamma(k + 1)
                + math.lgamma(n - i + 1)
                + math.lgamma(i + 1)
            )
            total = 0.0
            for t in range(max(0, i - k), min(n - k, i) + 1):
                cos_exp = n + i - k - 2 * t
                sin_exp = k - i + 2 * t
                if (c == 0.0 and cos_exp > 0) or (s == 0.0 and sin_exp > 0):
                    continue
                logmag = pref - (
                    math.lgamma(n - k - t + 1)
                    + math.lgamma(t + 1)
                    + math.lgamma(k - i + t + 1)
                    + math.lgamma(i - t + 1)
                )
                term = math.exp(logmag) * c**cos_exp * s**sin_exp
                # sign convention (-1)^(m'-m+t) with m'-m = k-i
                total += -term if (k - i + t) % 2 else term
            out[i, k] = total
    return out


def mode_rotation_unitary(n: int, beta: float = math.pi / 2) -> np.ndarray:
    """Unitary mapping rotated-mode Fock states into the reference Fock basis.

    Column k is the n-photon state with k photons in the rotated mode 1,
    expressed in the reference (mode-0/mode-1) Fock basis; the rotation
    sends mode 0 to cos(beta/2) a0 + sin(beta/2) a1.  At beta = pi/2 this is
    the 50/50 X<->Z mode change; the single-photon block reduces to
    [[cos(beta/2), -sin(beta/2)], [sin(beta/2), cos(beta/2)]].
    """
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    return _wigner_d(n, beta)


def _eigh_block(mat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigen-solver failed on photon block N={n}") from exc


def _sqrt_psd(mat: np.ndarray, n: int) -> np.ndarray:
    w, v = _eigh_block(mat, n)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def _sandwich_pinv_sqrt(filt: np.ndarray, op: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """pinv(sqrt(filt)) @ op @ pinv(sqrt(filt)) and the completion I - support."""
    w, v = _eigh_block(filt, n)
    inv = np.where(w > EIGEN_TOL, 1.0 / np.sqrt(np.clip(w, EIGEN_TOL, None)), 0.0)
    root_inv = (v * inv) @ v.T
    support = (v * (w > EIGEN_TOL)) @ v.T
    return root_inv @ op @ root_inv, np.eye(filt.shape[0]) - support


@dataclass(frozen=True)
class PovmBlock:
    """All labeled operators of one total-photon-number block.

    Joint operators act on Alice's qubit tensor Bob's (N+1)-dimensional
    photon subspace (dimension 2(N+1)), in the Z-mode Fock basis.
    """

    n_photons: int
    operators: dict[str, np.ndarray]

    def deltas(self) -> tuple[float, float]:
        return block_deltas(self)


def _bob_diagonals(n: int, eta0: float, eta1: float, d0: float, d1: float):
    """Diagonals of Bob's three POVM elements on the N-photon block, in the
    Fock basis of the detectors' own modes (index = photons in mode 1)."""
    n1 = np.arange(n + 1)
    n0 = n - n1
    silent0 = (1.0 - d0) * (1.0 - eta0) ** n0
    silent1 = (1.0 - d1) * (1.0 - eta1) ** n1
    perp = silent0 * silent1
    double = (1.0 - silent0) * (1.0 - silent1)
    out0 = (1.0 - silent0) * silent1 + 0.5 * double
    out1 = silent0 * (1.0 - silent1) + 0.5 * double
    return perp, out0, out1


_ALICE = {
    "Z": (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])),
    "X": (0.5 * np.array([[1.0, 1.0], [1.0, 1.0]]), 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])),
}


def build_block_povm(
    n: int,
    eta: tuple[float, float, float, float],
    dc: tuple[float, float, float, float],
    max_photons: int = MAX_BLOCK_PHOTONS,
) -> PovmBlock:
    """Construct every operator of the N-photon block.

    ``eta``/``dc`` order the four detectors as (Z0, Z1, X0, X1).  Produces
    the raw joint POVM elements per basis, the conclusive filters, the
    common filter (diagonal 1-(1-d_max)^2 (1-eta_max)^N), the residual
    basis-dependent filters, the completed third-step outcome operators,
    and the two sandwiched X-error operators whose distance defines delta1.
    """
    if n > max_photons:
        raise ValueError(
            f"photon block N={n} exceeds the configured cutoff {max_photons}"
        )
    if any(not 0.0 <= e <= 1.0 for e in eta) or any(not 0.0 <= d <= 1.0 for d in dc):
        raise ValueError("efficiencies and dark-count rates must lie in [0, 1]")

    dim = 2 * (n + 1)
    eye = np.eye(dim)
    rot = mode_rotation_unitary(n)

    ops: dict[str, np.ndarray] = {}
    for basis, (e0, e1, dd0, dd1) in (("Z", (*eta[:2], *dc[:2])), ("X", (*eta[2:], *dc[2:]))):
        perp, out0, out1 = _bob_diagonals(n, e0, e1, dd0, dd1)
        if basis == "Z":
            bob_perp, bob0, bob1 = np.diag(perp), np.diag(out0), np.diag(out1)
        else:
            bob_perp = rot @ np.diag(perp) @ rot.T
            bob0 = rot @ np.diag(out0) @ rot.T
            bob1 = rot @ np.diag(out1) @ rot.T
        a0, a1 = _ALICE[basis]
        ops[f"inconclusive_{basis}"] = np.kron(np.eye(2), bob_perp)
        ops[f"error_{basis}"] = np.kron(a0, bob1) + np.kron(a1, bob0)
        ops[f"match_{basis}"] = np.kron(a0, bob0) + np.kron(a1, bob1)
        ops[f"conclusive_{basis}"] = eye - ops[f"inconclusive_{basis}"]

    f_n = 1.0 - (1.0 - max(dc)) ** 2 * (1.0 - max(eta)) ** n
    ops["common_filter"] = f_n * eye

    for basis in ("Z", "X"):
        third_err, _ = _sandwich_pinv_sqrt(
            ops[f"conclusive_{basis}"], ops[f"error_{basis}"], n
        )
        third_match, completion = _sandwich_pinv_sqrt(
            ops[f"conclusive_{basis}"], ops[f"match_{basis}"], n
        )
        ops[f"outcome_error_{basis}"] = third_err
        ops[f"outcome_match_{basis}"] = third_match + completion
        residual, completion = _sandwich_pinv_sqrt(
            ops["common_filter"], ops[f"conclusive_{basis}"], n
        )
        ops[f"residual_filter_{basis}"] = residual + completion

    for basis in ("Z", "X"):
        root = _sqrt_psd(ops[f"residual_filter_{basis}"], n)
        ops[f"x_error_after_{basis}_filter"] = root @ ops["outcome_error_X"] @ root

    return PovmBlock(n_photons=n, operators=ops)


def build_block_povms(
    n_max: int,
    eta: tuple[float, float, float, float],
    dc: tuple[float, float, float, float],
) -> list[PovmBlock]:
    """Blocks for every total photon number N = 0..n_max."""
    return [build_block_povm(n, eta, dc) for n in range(n_max + 1)]


def _spectral_norm(mat: np.ndarray, n: int) -> float:
    w, _ = _eigh_block(mat, n)
    return float(np.abs(w).max())


def block_deltas(block: PovmBlock) -> tuple[float, float]:
    """Per-block (delta1, delta2) contributions."""
    n = block.n_photons
    diff = (
        block.operators["x_error_after_Z_filter"]
        - block.operators["x_error_after_X_filter"]
    )
    d1 = 2.0 * _spectral_norm(diff, n)
    d2 = _spectral_norm(
        np.eye(diff.shape[0]) - block.operators["residual_filter_Z"], n
    )
    return d1, d2


def _renormalized(
    eta: tuple[float, float, float, float],
) -> tuple[float, float, float, float]:
    """Pull the common detector loss into the channel: scale by 1/max(eta)."""
    top = max(eta)
    if top <= 0.0:
        return eta
    return tuple(e / top for e in eta)


def _box_points(spec: DetectorSpec, interior_samples: int, seed: int):
    """Tolerance-box corners plus Latin-hypercube interior samples.

    Eight axes: the four efficiencies and four dark-count rates.  Corners
    are where the analytic worst case lives; interior samples only guard
    against implementation error.
    """
    eta_axis = sorted({spec.eta_min, spec.eta_max})
    d_axis = sorted({spec.d_min, spec.d_max})
    corners = [
        (e[:4], e[4:])
        for e in itertools.product(*([eta_axis] * 4 + [d_axis] * 4))
    ]
    points = list(corners)
    if interior_samples > 0 and (len(eta_axis) > 1 or len(d_axis) > 1):
        # Imported here: loading scipy.stats costs most of the package's
        # import time, and only the oracle samples the box.
        from scipy.stats import qmc

        lo = np.array([spec.eta_min] * 4 + [spec.d_min] * 4)
        hi = np.array([spec.eta_max] * 4 + [spec.d_max] * 4)
        # Scaled by hand: qmc.scale rejects a flat axis (lo == hi).
        u = qmc.LatinHypercube(d=8, seed=seed).random(interior_samples)
        for row in lo + (hi - lo) * u:
            points.append((tuple(row[:4]), tuple(row[4:])))
    return points


def oracle_deltas(
    spec: DetectorSpec,
    n_max: int = 10,
    interior_samples: int = 16,
    seed: int = 0,
) -> DeltaPair:
    """Numeric (delta1, delta2): eigenvalue norms maximized over photon
    blocks N <= n_max and the detector tolerance box.

    Efficiencies are renormalized by their maximum at each evaluation point
    (common loss belongs to the channel), matching the convention of the
    closed form.  The result never exceeds ``closed_form_deltas``.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    best1 = best2 = 0.0
    for eta, dc in _box_points(spec, interior_samples, seed):
        eta = _renormalized(eta)
        for block in build_block_povms(n_max, eta, dc):
            d1, d2 = block_deltas(block)
            best1 = max(best1, d1)
            best2 = max(best2, d2)
    return DeltaPair(min(4.0, best1), min(1.0, best2))
