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
The one eigen-solve left is the spectral norm behind delta1.  The two
filtered X-error operators are diagonal in different bases, so their
difference is not; but both residual filters act alike on either of
Alice's bits and ``outcome_error_X`` is diagonal in Alice's X basis, so the
difference commutes with sigma_x (x) I.  ``block_deltas`` splits it as
|+><+| (x) M_+ + |-><-| (x) M_- and takes its norm from one batched
``eigvalsh`` of the two (N+1)-dimensional halves, building only the three
spectra they read (``_delta_parts``; ``_silences`` and ``_errors`` are
shared with ``_block_spectra``); ``build_block_povm`` forms both operators
by their definition, the reference the split is tested against.

The same spectra bound each half without a solve.  With A = R diag(g_a) R^T,
B = R diag(r g_a) R^T and S = diag(sqrt(s)), a half is M_a = S A S - B, and
S A S - A = (S - I) A S + A (S - I), so
||M_a|| <= max|(1 - r) g_a| + max|sqrt(s) - 1| max|g_a| (max sqrt(s) + 1)
and delta1 <= 2 max_a of that (``_delta1_bound``).  ``oracle_deltas``
builds and solves a block only on the rows whose delta1 bound, times
1 + 1e-9 plus EIGEN_TOL, exceeds the largest delta1 found so far.  The
slack covers the rounding of the bound, of the dense halves and of the
solve, so a skipped row cannot change the maximum, and the result equals
the maximum over every row.  Blocks past N = 1 decay geometrically, so at
the ``delta`` defaults only N = 0 and N = 1 are solved (203 of the 1,177
block rows), and a corners-only call at n_max = 64 takes about 21 ms
instead of 650 ms (2-core x86-64, one BLAS thread).

Both deltas are invariant under two relabellings, so ``oracle_deltas``
solves one box row per orbit.  Swapping Z0 with Z1 (efficiency and dark
count together) and Alice's Z bit maps the residual Z filter S to P S P,
with P the reversal of the Fock index; since P R = R D with D diagonal of
+-1, each half maps as M_a -> P M_a P.  Swapping X0 with X1 and Alice's X
bit maps M_a -> Q M_(1-a) Q with Q diagonal of +-1.  The common filter
reads only the maxima over all four detectors, so neither swap moves it,
and every norm is unchanged.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from bb84mm.stat_bounds import _checked_number, _checked_probabilities, _Record

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
class DetectorSpec(_Record):
    """Nominal detector parameters with relative characterization tolerances.

    Each of the four detectors (two bases times two outcomes) has an
    efficiency in [eta_det(1-delta_eta), eta_det(1+delta_eta)] and a
    dark-count probability in [d_det(1-delta_dc), d_det(1+delta_dc)].
    eta_det is at least the smallest normal float: at a subnormal one both
    ends of the efficiency range can round to the same value, and the
    tolerance (and with it the mismatch penalty) silently vanishes.
    ``eta_gap``, 1 - eta_min/eta_max, is formed without cancellation.
    """

    eta_det: float
    d_det: float
    delta_eta: float = 0.0
    delta_dc: float = 0.0

    _FIELDS = {
        "eta_det": (sys.float_info.min, 1.0, float, "[]"), "d_det": (0.0, 1.0, float, "[)"),
        "delta_eta": (0.0, 1.0, float, "[]"), "delta_dc": (0.0, 1.0, float, "[]"),
    }

    def __post_init__(self) -> None:
        super().__post_init__()
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
    def eta_gap(self) -> float:
        """1 - eta_min/eta_max without cancellation: 2 delta_eta/(1 + delta_eta),
        or (1 - eta_det) + eta_det delta_eta where eta_max is capped at 1."""
        if self.eta_det * (1.0 + self.delta_eta) < 1.0:
            return 2.0 * self.delta_eta / (1.0 + self.delta_eta)
        return (1.0 - self.eta_det) + self.eta_det * self.delta_eta


@dataclass(frozen=True)
class DeltaPair(_Record):
    """The two mismatch metrics: delta1 (additive phase-error penalty) and
    delta2 (worst-case discard weight of the key-basis residual filter)."""

    delta1: float
    delta2: float

    _FIELDS = {"delta1": (0.0, 4.0, float, "[]"), "delta2": (0.0, 1.0, float, "[]")}

    @classmethod
    def zero(cls) -> "DeltaPair":
        return cls(0.0, 0.0)


def closed_form_deltas(spec: DetectorSpec) -> DeltaPair:
    """Analytic worst-case (delta1, delta2) over the tolerance box.

    delta1 <= 4 max{1 - sqrt((1-(1-d_min)^2)/(1-(1-d_max)^2)),
                    1 - sqrt(1 - x)}
    delta2 <=   max{1 - (1-(1-d_min)^2)/(1-(1-d_max)^2), x}

    with x = (1-d_min)^2 ``eta_gap`` and 1 - sqrt(1 - x) formed as
    x/(1 + sqrt(1 - x)), so the efficiency branch keeps full relative
    precision at any delta_eta.  When d_min = 0 but d_max > 0 the first
    branch is vacuous (ratio 0), driving delta1 to its cap of 4 and key
    rates to zero; a warning flags that regime.
    """
    d_min, d_max = spec.d_min, spec.d_max
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
    x = (1.0 - d_min) ** 2 * spec.eta_gap
    delta1 = min(4.0, 4.0 * max(branch_dark_1, x / (1.0 + math.sqrt(1.0 - x))))
    delta2 = min(1.0, max(branch_dark_2, x))
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
    n = _checked_number("n", n, 0, MAX_BLOCK_PHOTONS, int)
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


def _checked(n: int, eta, dc, shape: str = "(..., 4)") -> tuple[int, np.ndarray, np.ndarray]:
    """N as an int and ``eta``/``dc`` as float arrays, once all are in range
    and of one ``shape``: four detectors (Z0, Z1, X0, X1) on the last axis."""
    n = _checked_number("n", n, 0, MAX_BLOCK_PHOTONS, int)
    eta, dc = _checked_probabilities("eta", eta), _checked_probabilities("dc", dc)
    if eta.shape[-1:] != (4,) or shape == "(4,)" and eta.ndim != 1:
        raise ValueError(f"eta must have shape {shape}, one entry per detector, got {eta.shape}")
    if dc.shape != eta.shape:
        raise ValueError(f"dc must have the shape of eta, {eta.shape}, got {dc.shape}")
    return n, eta, dc


def _common_filter(n: int, eta: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """f_N = 1 - (1-d_max)^2 (1-eta_max)^N, the common filter's one
    eigenvalue, with the batch shape."""
    return 1.0 - (1.0 - dc.max(axis=-1)) ** 2 * (1.0 - eta.max(axis=-1)) ** n


def _silences(n: int, eta: np.ndarray, dc: np.ndarray, k: int):
    """No-click probabilities of one basis's outcome-0 and outcome-1
    detectors (k and k + 1 in the (Z0, Z1, X0, X1) order), each with the
    batch shape plus (N+1,) over Bob's photons in mode 1 of the basis's
    eigenbasis.  Their product is the inconclusive spectrum."""
    photons1 = np.arange(n + 1)
    silent0 = (1.0 - dc[..., k, None]) * (1.0 - eta[..., k, None]) ** (n - photons1)
    silent1 = (1.0 - dc[..., k + 1, None]) * (1.0 - eta[..., k + 1, None]) ** photons1
    return silent0, silent1


def _errors(silent0: np.ndarray, silent1: np.ndarray) -> np.ndarray:
    """The error spectrum of one basis over (Alice's bit, Bob's photons in
    mode 1), with the batch shape plus (2, N+1).  A double click is assigned
    by a fair coin, and an error is Alice's bit 0 with Bob's outcome 1, or
    bit 1 with 0, so flipping Alice's bit gives the match spectrum."""
    double = (1.0 - silent0) * (1.0 - silent1)
    out0 = (1.0 - silent0) * silent1 + 0.5 * double
    out1 = silent0 * (1.0 - silent1) + 0.5 * double
    return np.stack([out1, out0], axis=-2)


def _residual_filter(conclusive: np.ndarray, f_n: np.ndarray) -> np.ndarray:
    """A conclusive spectrum between the pinv square roots of the common
    filter, completed on its kernel."""
    inv, kernel = _pinv(f_n[..., None])
    return conclusive * inv + kernel


def _block_spectra(n: int, eta, dc) -> dict[str, np.ndarray]:
    """Eigenvalues of every operator of the N-photon block.

    ``eta``/``dc``, as ``_checked`` returns them, order the four detectors
    as (Z0, Z1, X0, X1) along their last axis; any leading axes (box
    points) are batched.  Each spectrum has the batch shape plus (2(N+1),),
    indexed by Alice's bit (outer) and Bob's photons in mode 1 (inner) of
    the operator's eigenbasis: the Fock basis for ``*_Z`` and
    ``common_filter``, kron(H, R) for ``*_X``.
    """
    f_n = _common_filter(n, eta, dc)
    common = np.repeat(f_n[..., None], 2 * (n + 1), axis=-1)
    spectra = {"common_filter": common}
    for basis, k in (("Z", 0), ("X", 2)):
        silent0, silent1 = _silences(n, eta, dc, k)
        perp = silent0 * silent1
        inconclusive = np.concatenate([perp, perp], axis=-1)
        conclusive = 1.0 - inconclusive
        errors = _errors(silent0, silent1)
        error = errors.reshape(common.shape)
        match = errors[..., ::-1, :].reshape(common.shape)
        inv, kernel = _pinv(conclusive)
        spectra[f"inconclusive_{basis}"] = inconclusive
        spectra[f"error_{basis}"] = error
        spectra[f"match_{basis}"] = match
        spectra[f"conclusive_{basis}"] = conclusive
        # Third-step outcomes: the conclusive filter's pinv-sqrt sandwich,
        # completed on its kernel.
        spectra[f"outcome_error_{basis}"] = error * inv
        spectra[f"outcome_match_{basis}"] = match * inv + kernel
        spectra[f"residual_filter_{basis}"] = _residual_filter(conclusive, f_n)
    return spectra


def _dense(spectrum: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """basis @ diag(spectrum) @ basis.T, batched over the leading axes as one
    matrix product."""
    m = basis.shape[0]
    scaled = (basis * spectrum[..., None, :]).reshape(-1, m)
    return (scaled @ basis.T).reshape(spectrum.shape[:-1] + (m, m))


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

    ``eta``/``dc``, of shape (4,), order the detectors as (Z0, Z1, X0, X1).  Produces
    the raw joint POVM elements per basis, the conclusive filters, the
    common filter (f_N I with f_N = 1-(1-d_max)^2 (1-eta_max)^N), the
    residual basis-dependent filters, the completed third-step outcome
    operators, and the two filtered X-error operators whose distance
    defines delta1.  Each comes from its spectrum in its known eigenbasis,
    but the X error after the Z filter is the dense outcome_error_X between
    the filter's square roots.
    """
    n, eta, dc = _checked(n, eta, dc, "(4,)")
    spectra = _block_spectra(n, eta, dc)
    rot = mode_rotation_unitary(n)
    # kron(H, R): the common eigenbasis of the X-basis operators.
    basis = np.kron(_HADAMARD, rot)
    ops = {
        name: _dense(w, basis) if name.endswith("_X") else np.diag(w)
        for name, w in spectra.items()
    }
    root_z = np.sqrt(spectra["residual_filter_Z"])
    ops["x_error_after_Z_filter"] = root_z[:, None] * ops["outcome_error_X"] * root_z
    ops["x_error_after_X_filter"] = _dense(
        spectra["residual_filter_X"] * spectra["outcome_error_X"], basis
    )
    return PovmBlock(n_photons=n, operators=ops)


def build_block_povms(
    n_max: int,
    eta: tuple[float, float, float, float],
    dc: tuple[float, float, float, float],
) -> list[PovmBlock]:
    """Blocks for every total photon number N = 0..n_max."""
    n_max = _checked_number("n_max", n_max, 0, MAX_BLOCK_PHOTONS, int)
    return [build_block_povm(n, eta, dc) for n in range(n_max + 1)]


def _delta_parts(
    n: int, eta: np.ndarray, dc: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """delta2 at each batch point, and the three spectra delta1 reads: the
    Z and X residual filters s and r on one of Alice's bits (each repeats
    on the other), with the batch shape plus (N+1,), and outcome_error_X
    g_a on her X-basis bit a, with the batch shape plus (2, N+1).  delta2 =
    ||I - residual_filter_Z|| needs no solve, the filter being diagonal."""
    f_n = _common_filter(n, eta, dc)
    z0, z1 = _silences(n, eta, dc, 0)
    x0, x1 = _silences(n, eta, dc, 2)
    residual_z = _residual_filter(1.0 - z0 * z1, f_n)
    conclusive_x = 1.0 - x0 * x1
    g = _errors(x0, x1) * _pinv(conclusive_x)[0][..., None, :]
    d2 = np.abs(1.0 - residual_z).max(axis=-1)
    return d2, (residual_z, g, _residual_filter(conclusive_x, f_n))


def _delta1(n: int, s: np.ndarray, g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """delta1 = 2 ||x_error_after_Z_filter - x_error_after_X_filter|| from
    ``_delta_parts``' spectra: the difference splits along Alice's X-basis
    bit a into two (N+1)-dimensional halves M_a = S A_a S - B_a, with
    A_a = R diag(g_a) R^T, B_a = R diag(r g_a) R^T and S = diag(sqrt(s)), so
    it is twice the largest eigenvalue magnitude of either half, from one
    batched ``eigvalsh``."""
    rot = mode_rotation_unitary(n)
    root_z = np.sqrt(s[..., None, :])
    after_z = root_z[..., :, None] * _dense(g, rot) * root_z[..., None, :]
    after_x = _dense(r[..., None, :] * g, rot)
    w = _eigen(np.linalg.eigvalsh, after_z - after_x, n)
    return 2.0 * np.abs(w).max(axis=(-2, -1))


def _delta1_bound(s: np.ndarray, g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """An upper bound on ``_delta1`` read elementwise from the same spectra,
    with no dense product and no solve.  Since S A S - A = (S - I) A S +
    A (S - I) and R is orthogonal,
    ||M_a|| <= max|(1 - r) g_a| + max|sqrt(s) - 1| max|g_a| (max sqrt(s) + 1)."""
    root = np.sqrt(s)
    spread = np.abs(root - 1.0).max(axis=-1) * (root.max(axis=-1) + 1.0)
    g = np.abs(g)
    half = np.abs(1.0 - r)[..., None, :] * g
    return 2.0 * (half.max(axis=-1) + spread[..., None] * g.max(axis=-1)).max(axis=-1)


def block_deltas(n: int, eta, dc) -> tuple[np.ndarray, np.ndarray]:
    """Per-block (delta1, delta2) contributions at a batch of parameter points.

    ``eta``/``dc`` are as in ``_block_spectra``, of one shape (..., 4); both
    results have their batch shape.  Only the three spectra the deltas read
    are built (``_delta_parts``); delta1 takes one batched ``eigvalsh``
    (``_delta1``).
    """
    n, eta, dc = _checked(n, eta, dc)
    d2, (s, g, r) = _delta_parts(n, eta, dc)
    return _delta1(n, s, g, r), d2


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


def _orbit_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One (eta, dc) row per detector-swap orbit of the box points, with the
    efficiencies renormalized by their maximum; a row of four blind detectors
    (delta_eta = 1) becomes all ones, the limit of four equal efficiencies.

    Swapping the two detectors of a basis, efficiency and dark count
    together, leaves both per-block deltas unchanged (see the module
    docstring), so each pair is put in (eta, dc) order and duplicate rows
    are dropped.  numpy sorts complex numbers by real part, then imaginary
    part.
    """
    top = points[:, :4].max(axis=1, keepdims=True)
    eta = np.divide(points[:, :4], top, out=np.ones_like(points[:, :4]), where=top > 0)
    pairs = np.sort((eta + 1j * points[:, 4:]).reshape(-1, 2, 2), axis=-1).reshape(-1, 4)
    rows = np.unique(np.hstack([pairs.real, pairs.imag]), axis=0)
    return rows[:, :4], rows[:, 4:]


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

    The box is symmetric under swapping Z0 with Z1 and X0 with X1, and
    either swap leaves both per-block deltas unchanged, so the maximum over
    one row per orbit (``_orbit_rows``) is the maximum over the box.  At
    the defaults the 272 box rows (256 corners and 16 interior samples)
    leave 107 orbit rows, 91 of them corners; renormalizing alone would
    leave 256.  delta2 is read on every row of every block; delta1 is
    solved only on the rows whose ``_delta1_bound`` can raise the largest
    value found so far (see the module docstring), 203 rows in blocks
    N = 0 and 1 at the defaults.  A call at the ``delta`` defaults takes
    3.2-4.9 ms, against 8.9-13.7 ms when every row of every block was
    solved (``op_p50_ms`` of ten runs of the benchmark's
    ``mismatch_oracle`` workload, 2-core x86-64, one BLAS thread).
    ``n_max`` must lie in [1, MAX_BLOCK_PHOTONS], ``seed`` be
    >= 0 and ``interior_samples`` be an integer >= 0 (0: corners only).
    """
    n_max = _checked_number("n_max", n_max, 1, MAX_BLOCK_PHOTONS, int)
    interior_samples = _checked_number("interior_samples", interior_samples, 0, math.inf, int)
    seed = _checked_number("seed", seed, 0, math.inf, int)
    eta, dc = _orbit_rows(_box_points(spec, interior_samples, seed))
    best1 = best2 = 0.0
    for n in range(n_max + 1):
        d2, (s, g, r) = _delta_parts(n, eta, dc)
        best2 = max(best2, float(d2.max()))
        # A skipped row cannot move best1: the factor covers the bound's
        # rounding and the solver's backward error, about (N+1) eps ||M||,
        # and EIGEN_TOL the rounding of the dense halves, relative to
        # max g_a <= 1 rather than to ||M||.
        keep = _delta1_bound(s, g, r) * (1.0 + 1e-9) + EIGEN_TOL > best1
        if keep.any():
            best1 = max(best1, float(_delta1(n, s[keep], g[keep], r[keep]).max()))
    return DeltaPair(min(4.0, best1), min(1.0, best2))
