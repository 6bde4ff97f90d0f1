"""Threshold-detector POVM model and the mismatch metrics delta1/delta2.

Bob holds two threshold detectors per basis; double clicks are assigned to
0/1 by a fair coin.  Every operator is block-diagonal in the total photon
number N, so each block (Alice qubit tensor Bob's N-photon two-mode
subspace, dimension 2(N+1)) can be handled independently.

Two routes to the mismatch metrics:

* ``closed_form_deltas`` -- analytic worst-case bounds over the detector
  tolerance box, in terms of the extreme efficiencies and dark-count rates.
* ``oracle_deltas`` -- direct numeric evaluation: per-block norms of the
  filtered POVM operators, maximized over photon blocks and tolerance-box
  corners (plus interior samples as an implementation check).

The oracle is definitionally tighter (the closed form pays a triangle
inequality), so oracle <= closed form component-wise is a tested invariant.
Key rates use the closed form.

Every block operator has a known eigenbasis.  Z-basis operators are
diagonal in the Z-mode Fock basis; X-basis operators are diagonal in
kron(H, R), with H the Hadamard on Alice's qubit and R the N-photon
representation of the 50/50 mode rotation (``mode_rotation_unitary``); the
common filter is f_N times the identity.  ``_block_spectra`` therefore gives
each operator as its eigenvalue vector, batched over tolerance-box points,
and every pseudo-inverse and square root acts elementwise on those vectors.
The one eigen-solve left per block is the spectral norm behind delta1.  The
two filtered X-error operators are diagonal in different bases, so their
difference is not; but both residual filters act alike on either of
Alice's bits and ``outcome_error_X`` is diagonal in Alice's X basis, so the
difference commutes with sigma_x (x) I.  It splits as
|+><+| (x) M_+ + |-><-| (x) M_- (``_filtered_x_error_halves``), and one
batched ``eigvalsh`` of the two (N+1)-dimensional halves gives its norm.
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

# Eigenvalues at or below this are treated as exact zeros in pseudo-inverses.
EIGEN_TOL = 1e-12

# Hard cap on the per-block photon number.  The mode rotation is tested
# orthogonal to 1e-13 up to this cap, and the per-block deltas are tested to
# decay geometrically beyond N = 1 all the way to it.
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


def _eigen(solver, mat: np.ndarray, n: int):
    """``solver(mat)``, reporting a failed solve as a numeric failure."""
    try:
        return solver(mat)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigen-solver failed on photon block N={n}") from exc


def mode_rotation_unitary(n: int) -> np.ndarray:
    """Unitary mapping rotated-mode Fock states into the reference Fock basis.

    Column k is the n-photon state with k photons in the rotated mode 1,
    expressed in the reference Fock basis (index = photons in mode 1); the
    rotation sends mode 0 to (a0 + a1)/sqrt2 and mode 1 to (a1 - a0)/sqrt2,
    the 50/50 X<->Z mode change.  These states are the eigenvectors of the
    rotated number operator n/2 - (a0'a1 + a1'a0)/2, tridiagonal in the
    reference basis with the distinct eigenvalues k = 0..n.  Each column's
    sign makes its last entry, sqrt(C(n, k) / 2^n), positive; the
    single-photon block is [[1, -1], [1, 1]] / sqrt2.
    """
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    i = np.arange(1, n + 1)
    hop = -0.5 * np.sqrt(i * (n - i + 1.0))
    number = np.diag(np.full(n + 1, 0.5 * n)) + np.diag(hop, 1) + np.diag(hop, -1)
    _, vecs = _eigen(np.linalg.eigh, number, n)
    return vecs * np.sign(vecs[-1])


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _pinv(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise pseudo-inverse of a spectrum, and the mask of its kernel."""
    support = w > EIGEN_TOL
    return np.divide(1.0, w, out=np.zeros_like(w), where=support), ~support


def _block_spectra(n: int, eta, dc) -> dict[str, np.ndarray]:
    """Eigenvalues of every operator of the N-photon block.

    ``eta``/``dc`` order the four detectors as (Z0, Z1, X0, X1) along their
    last axis; any leading axes (box points) are batched.  Each spectrum has
    the batch shape plus (2(N+1),), indexed by Alice's bit (outer) and Bob's
    photons in mode 1 (inner) of the operator's eigenbasis: the Fock basis
    for ``*_Z`` and ``common_filter``, kron(H, R) for ``*_X``.
    """
    if n > MAX_BLOCK_PHOTONS:
        raise ValueError(f"photon block N={n} exceeds the cutoff {MAX_BLOCK_PHOTONS}")
    eta = np.asarray(eta, dtype=float)
    dc = np.asarray(dc, dtype=float)
    # NaN fails both comparisons, so it is rejected too.
    if not (np.all((eta >= 0.0) & (eta <= 1.0)) and np.all((dc >= 0.0) & (dc <= 1.0))):
        raise ValueError("efficiencies and dark-count rates must lie in [0, 1]")

    f_n = 1.0 - (1.0 - dc.max(axis=-1)) ** 2 * (1.0 - eta.max(axis=-1)) ** n
    common = np.repeat(f_n[..., None], 2 * (n + 1), axis=-1)
    common_inv, common_kernel = _pinv(common)
    spectra = {"common_filter": common}

    photons1 = np.arange(n + 1)
    for basis, k in (("Z", 0), ("X", 2)):
        silent0 = (1.0 - dc[..., k, None]) * (1.0 - eta[..., k, None]) ** (n - photons1)
        silent1 = (1.0 - dc[..., k + 1, None]) * (1.0 - eta[..., k + 1, None]) ** photons1
        double = (1.0 - silent0) * (1.0 - silent1)
        out0 = (1.0 - silent0) * silent1 + 0.5 * double
        out1 = silent0 * (1.0 - silent1) + 0.5 * double
        perp = silent0 * silent1
        inconclusive = np.concatenate([perp, perp], axis=-1)
        # An error is Alice's bit 0 with Bob's outcome 1, or bit 1 with 0.
        error = np.concatenate([out1, out0], axis=-1)
        match = np.concatenate([out0, out1], axis=-1)
        conclusive = 1.0 - inconclusive
        inv, kernel = _pinv(conclusive)
        spectra[f"inconclusive_{basis}"] = inconclusive
        spectra[f"error_{basis}"] = error
        spectra[f"match_{basis}"] = match
        spectra[f"conclusive_{basis}"] = conclusive
        # Third-step outcomes: the conclusive filter's pinv-sqrt sandwich,
        # completed on its kernel.
        spectra[f"outcome_error_{basis}"] = error * inv
        spectra[f"outcome_match_{basis}"] = match * inv + kernel
        # Residual filter: the common filter's pinv-sqrt sandwich, completed.
        spectra[f"residual_filter_{basis}"] = conclusive * common_inv + common_kernel
    return spectra


def _dense(spectrum: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """basis @ diag(spectrum) @ basis.T, batched over the leading axes as one
    matrix product."""
    m = basis.shape[0]
    scaled = (basis * spectrum[..., None, :]).reshape(-1, m)
    return (scaled @ basis.T).reshape(spectrum.shape[:-1] + (m, m))


def _filtered_x_error_halves(spectra: dict[str, np.ndarray], rot: np.ndarray):
    """outcome_error_X between the square roots of the Z and of the X
    residual filters, as its two halves on Alice's X-basis bits (+, -).

    Both residual filters repeat one (N+1)-spectrum on either of Alice's
    bits (their conclusive filters are built from [perp, perp]), so the
    sandwich keeps Alice's X basis: half a is S R diag(g_a) R^T S after the
    Z filter, S = diag(sqrt(s)) in the Fock basis, and R diag(r g_a) R^T
    after the X filter.  Each result has the batch shape plus (2, N+1, N+1).
    """
    m = rot.shape[0]
    g = spectra["outcome_error_X"]
    g = g.reshape(g.shape[:-1] + (2, m))
    root_s = np.sqrt(spectra["residual_filter_Z"][..., None, :m])
    r = spectra["residual_filter_X"][..., None, :m]
    after_z = root_s[..., :, None] * _dense(g, rot) * root_s[..., None, :]
    after_x = _dense(r * g, rot)
    return after_z, after_x


def _join_halves(halves: np.ndarray) -> np.ndarray:
    """The dense operator |+><+| (x) halves[0] + |-><-| (x) halves[1]."""
    return sum(np.kron(np.outer(h, h), half) for h, half in zip(_HADAMARD.T, halves))


@dataclass(frozen=True)
class PovmBlock:
    """All labeled operators of one total-photon-number block.

    Joint operators act on Alice's qubit tensor Bob's (N+1)-dimensional
    photon subspace (dimension 2(N+1)), in the Z-mode Fock basis.
    """

    n_photons: int
    operators: dict[str, np.ndarray]


def build_block_povm(
    n: int,
    eta: tuple[float, float, float, float],
    dc: tuple[float, float, float, float],
) -> PovmBlock:
    """Construct every operator of the N-photon block as a dense matrix.

    ``eta``/``dc`` order the four detectors as (Z0, Z1, X0, X1).  Produces
    the raw joint POVM elements per basis, the conclusive filters, the
    common filter (f_N I with f_N = 1-(1-d_max)^2 (1-eta_max)^N), the
    residual basis-dependent filters, the completed third-step outcome
    operators, and the two filtered X-error operators whose distance
    defines delta1.  Each comes from its spectrum in its known eigenbasis.
    """
    spectra = _block_spectra(n, eta, dc)
    rot = mode_rotation_unitary(n)
    # kron(H, R): the common eigenbasis of the X-basis operators.
    basis = np.kron(_HADAMARD, rot)
    ops = {
        name: _dense(w, basis) if name.endswith("_X") else np.diag(w)
        for name, w in spectra.items()
    }
    after_z, after_x = _filtered_x_error_halves(spectra, rot)
    ops["x_error_after_Z_filter"] = _join_halves(after_z)
    ops["x_error_after_X_filter"] = _join_halves(after_x)
    return PovmBlock(n_photons=n, operators=ops)


def build_block_povms(
    n_max: int,
    eta: tuple[float, float, float, float],
    dc: tuple[float, float, float, float],
) -> list[PovmBlock]:
    """Blocks for every total photon number N = 0..n_max."""
    return [build_block_povm(n, eta, dc) for n in range(n_max + 1)]


def block_deltas(n: int, eta, dc) -> tuple[np.ndarray, np.ndarray]:
    """Per-block (delta1, delta2) contributions at a batch of parameter points.

    ``eta``/``dc`` are as in ``_block_spectra``; both results have their
    batch shape.  delta2 = ||I - residual_filter_Z|| needs no solve, the
    filter being diagonal.  delta1 = 2 ||x_error_after_Z_filter -
    x_error_after_X_filter||: the difference splits along Alice's X-basis
    bit into two (N+1)-dimensional halves, so delta1 is twice the largest
    eigenvalue magnitude of either half, from one batched ``eigvalsh``.
    """
    spectra = _block_spectra(n, eta, dc)
    after_z, after_x = _filtered_x_error_halves(spectra, mode_rotation_unitary(n))
    w = _eigen(np.linalg.eigvalsh, after_z - after_x, n)
    d1 = 2.0 * np.abs(w).max(axis=(-2, -1))
    d2 = np.abs(1.0 - spectra["residual_filter_Z"]).max(axis=-1)
    return d1, d2


def _box_points(spec: DetectorSpec, interior_samples: int, seed: int) -> np.ndarray:
    """Tolerance-box corners plus Latin-hypercube interior samples, (P, 8).

    Eight axes: the four efficiencies and four dark-count rates.  Corners
    are where the analytic worst case lives; interior samples only guard
    against implementation error.  Each axis is cut into
    ``interior_samples`` strata, visited in an independent random order
    with a uniform jitter inside each stratum.
    """
    lo = np.array([spec.eta_min] * 4 + [spec.d_min] * 4)
    hi = np.array([spec.eta_max] * 4 + [spec.d_max] * 4)
    corners = np.array(list(itertools.product(*(sorted({a, b}) for a, b in zip(lo, hi)))))
    if interior_samples <= 0 or np.all(lo == hi):
        return corners
    rng = np.random.default_rng(seed)
    strata = rng.permuted(np.tile(np.arange(interior_samples), (8, 1)), axis=1).T
    u = (strata + rng.random((interior_samples, 8))) / interior_samples
    return np.vstack([corners, lo + (hi - lo) * u])


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
    if not 1 <= n_max <= MAX_BLOCK_PHOTONS:
        raise ValueError(f"n_max must lie in [1, {MAX_BLOCK_PHOTONS}], got {n_max}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    points = _box_points(spec, interior_samples, seed)
    eta = points[:, :4] / points[:, :4].max(axis=1, keepdims=True)
    # Renormalizing merges corners, e.g. all-min and all-max efficiencies.
    points = np.unique(np.hstack([eta, points[:, 4:]]), axis=0)
    eta, dc = points[:, :4], points[:, 4:]
    best1 = best2 = 0.0
    for n in range(n_max + 1):
        d1, d2 = block_deltas(n, eta, dc)
        best1 = max(best1, float(d1.max()))
        best2 = max(best2, float(d2.max()))
    return DeltaPair(min(4.0, best1), min(1.0, best2))
