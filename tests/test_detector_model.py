"""Structural and numerical tests of the detector POVM model."""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bb84mm.detector_model import (
    EIGEN_TOL,
    MAX_BLOCK_PHOTONS,
    DeltaPair,
    DetectorSpec,
    block_deltas,
    build_block_povm,
    build_block_povms,
    closed_form_deltas,
    _box_points,
    _delta1_bound,
    _delta_parts,
    _orbit_rows,
    mode_rotation_unitary,
    oracle_deltas,
)

REFERENCE = DetectorSpec(eta_det=0.7, d_det=1e-6)

# Detector orders (Z0, Z1, X0, X1) reached by swapping the Z pair, the X
# pair, or both.
SWAPS = [[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 3, 2], [1, 0, 3, 2]]


def rotated_state_oracle(n, k):
    """Oracle: n-photon state with k photons in the rotated mode 1, built
    by binomially expanding ((a0+a1)/sqrt2)^(n-k) ((-a0+a1)/sqrt2)^k |vac>.

    The rotated mode 1 is -(a0-a1)/sqrt2, i.e. the '-' mode up to a global
    phase (-1)^k; projectors built from these columns are insensitive to
    that phase.
    """
    coeff = np.zeros(n + 1)  # index = photons in mode 1
    m_plus, m_minus = n - k, k
    for i in range(m_plus + 1):
        for j in range(m_minus + 1):
            n0 = i + j
            n1 = n - n0
            amp = (
                math.comb(m_plus, i)
                * math.comb(m_minus, j)
                * (-1) ** j
                / math.sqrt(2**n)
                * math.sqrt(math.factorial(n0) * math.factorial(n1))
                / math.sqrt(math.factorial(m_plus) * math.factorial(m_minus))
            )
            coeff[n1] += amp
    return coeff


class TestModeRotation:
    def test_single_photon_is_hadamard_like(self):
        u = mode_rotation_unitary(1)
        expect = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2)
        assert np.allclose(u, expect, atol=1e-14)

    def test_unitary(self):
        for n in range(MAX_BLOCK_PHOTONS + 1):
            u = mode_rotation_unitary(n)
            assert np.abs(u @ u.T - np.eye(n + 1)).max() <= 1e-13, n

    def test_matches_creation_operator_expansion(self):
        for n in range(6):
            u = mode_rotation_unitary(n)
            for k in range(n + 1):
                assert np.allclose(u[:, k], rotated_state_oracle(n, k), atol=1e-12), (n, k)


class TestDetectorSpec:
    def test_extremes(self):
        s = DetectorSpec(0.7, 1e-6, 0.01, 0.02)
        assert s.eta_min == pytest.approx(0.693)
        assert s.eta_max == pytest.approx(0.707)
        assert s.d_min == pytest.approx(0.98e-6)
        assert s.d_max == pytest.approx(1.02e-6)
        assert s.eta_gap == pytest.approx(1 - 0.693 / 0.707)

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            DetectorSpec(0.999, 1e-6, delta_eta=0.01)
        with pytest.raises(ValueError):
            DetectorSpec(0.7, 0.6, delta_dc=0.9)
        # A subnormal eta_det: eta_min and eta_max can round to one value.
        with pytest.raises(ValueError, match=r"^eta_det must be a finite number in \[2.22507e-308, 1\]"):
            DetectorSpec(5e-324, 1e-6, 0.05, 0)


class TestClosedFormDeltas:
    def test_no_tolerance_gives_zero(self):
        assert closed_form_deltas(REFERENCE) == DeltaPair(0.0, 0.0)

    def test_one_percent_reference(self):
        d = closed_form_deltas(DetectorSpec(0.7, 1e-6, 0.01, 0.01))
        assert d.delta1 == pytest.approx(0.0398, abs=1e-3)
        assert d.delta2 == pytest.approx(0.0198, abs=1e-3)

    def test_zero_dark_floor_is_degenerate(self):
        with pytest.warns(UserWarning, match="d_min = 0"):
            d = closed_form_deltas(DetectorSpec(0.7, 1e-6, 0.0, 1.0))
        assert d.delta1 == 4.0
        assert d.delta2 == 1.0

    def test_no_dark_counts_at_all(self):
        # d_det = 0 exactly: vacuum block is fully filtered, only the
        # efficiency branch survives.
        d = closed_form_deltas(DetectorSpec(0.7, 0.0, 0.01, 0.0))
        eta_r = 0.99 / 1.01
        assert d.delta1 == pytest.approx(4 * (1 - math.sqrt(eta_r)), rel=1e-12)
        assert d.delta2 == pytest.approx(1 - eta_r, rel=1e-12)

    def test_simplified_bound_consistency(self):
        # Against 4*max(tolerances) and 2*max(tolerances) within 10%.
        for de, dd in [(0.005, 0.005), (0.01, 0.005), (0.02, 0.02), (0.001, 0.02)]:
            d = closed_form_deltas(DetectorSpec(0.7, 1e-6, de, dd))
            top = max(de, dd)
            assert d.delta1 == pytest.approx(4 * top, rel=0.1)
            assert d.delta2 == pytest.approx(2 * top, rel=0.1)

    @given(
        d_det=st.floats(1e-12, 0.1), delta_eta=st.just(0.0) | st.floats(1e-3, 1.0),
        delta_dc=st.floats(0.0, 0.9), u=st.floats(0.0, 1.0),
    )
    def test_depends_on_eta_det_only_through_the_tolerances(self, d_det, delta_eta, delta_dc, u):
        # eta_det log-uniform in [smallest normal, 1/(1 + delta_eta)] against
        # 0.5 (at 5e-324 both deltas were 0).  Below delta_eta = 1e-3,
        # rounding eta_det(1 -/+ delta_eta) moves the oracle's box by > 1e-12.
        top = 1.0 / (1.0 + delta_eta)
        eta = min(top, 2.0 ** (-1022.0 + u * (1022.0 + math.log2(top))))
        for deltas in (closed_form_deltas, lambda s: oracle_deltas(s, n_max=3, interior_samples=0, seed=0)):
            got, want = (deltas(DetectorSpec(e, d_det, delta_eta, delta_dc)) for e in (eta, 0.5))
            assert (got.delta1, got.delta2) == pytest.approx((want.delta1, want.delta2), rel=1e-12)

    @pytest.mark.parametrize("delta_eta", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("eta_det", [0.3, 0.5, 0.7, 0.9])
    def test_efficiency_branch_keeps_full_precision(self, eta_det, delta_eta):
        # Against x = (1 - d)^2 2 delta_eta/(1 + delta_eta) in 60 digits; the
        # gap from two rounded efficiencies was up to 9e-5 off at 1e-12.
        got = closed_form_deltas(DetectorSpec(eta_det, 1e-6, delta_eta, 0.0))
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            de = Decimal(delta_eta)
            x = (1 - Decimal(1e-6)) ** 2 * 2 * de / (1 + de)
            want = (4 * (1 - (1 - x).sqrt()), x)
        assert (got.delta1, got.delta2) == pytest.approx(tuple(map(float, want)), rel=1e-15, abs=0)

    def test_monotone_in_tolerances(self):
        grid = [0.0, 0.002, 0.005, 0.01, 0.02]
        prev = -1.0
        for t in grid:
            d = closed_form_deltas(DetectorSpec(0.7, 1e-6, t, 0.0))
            assert d.delta1 >= prev
            prev = d.delta1
        prev = -1.0
        for t in grid:
            d = closed_form_deltas(DetectorSpec(0.7, 1e-6, 0.0, t if t < 1 else 0.99))
            assert d.delta1 >= prev
            prev = d.delta1


def _random_params(rng):
    eta = tuple(rng.uniform(0.4, 1.0, 4))
    dc = tuple(rng.uniform(0.0, 0.05, 4))
    return eta, dc


def _psd_root(op):
    w, v = np.linalg.eigh(op)
    return (v * np.sqrt(np.clip(w, 0, None))) @ v.T


def _filtered_x_errors_reference(ops):
    """outcome_error_X between generic square roots of the Z and of the X
    residual filters, from the dense operators alone."""
    g = ops["outcome_error_X"]
    root_z = _psd_root(ops["residual_filter_Z"])
    root_x = _psd_root(ops["residual_filter_X"])
    return root_z @ g @ root_z, root_x @ g @ root_x


class TestBlockStructure:
    def test_vacuum_block_entries(self):
        dc = (1e-3, 2e-3, 1.5e-3, 2.5e-3)
        blk = build_block_povm(0, (0.7, 0.7, 0.7, 0.7), dc)
        f0 = blk.operators["common_filter"][0, 0]
        assert f0 == pytest.approx(1 - (1 - max(dc)) ** 2, rel=1e-12)
        perp = blk.operators["inconclusive_Z"][0, 0]
        assert perp == pytest.approx((1 - dc[0]) * (1 - dc[1]), rel=1e-12)

    def test_unit_efficiency_single_photon(self):
        blk = build_block_povm(1, (1.0, 1.0, 1.0, 1.0), (0.0,) * 4)
        for b in ("Z", "X"):
            assert np.allclose(blk.operators[f"inconclusive_{b}"], 0.0, atol=1e-14)
            total = blk.operators[f"error_{b}"] + blk.operators[f"match_{b}"]
            assert np.allclose(total, np.eye(4), atol=1e-12)

    def test_completeness_two_photon_example(self):
        blk = build_block_povm(2, (0.99, 1.0, 0.995, 0.998), (1e-6,) * 4)
        for b in ("Z", "X"):
            total = (
                blk.operators[f"inconclusive_{b}"]
                + blk.operators[f"error_{b}"]
                + blk.operators[f"match_{b}"]
            )
            assert np.abs(total - np.eye(6)).max() < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_structural_invariants_random_params(self, seed):
        rng = np.random.default_rng(seed)
        eta, dc = _random_params(rng)
        for blk in build_block_povms(4, eta, dc):
            dim = 2 * (blk.n_photons + 1)
            eye = np.eye(dim)
            for b in ("Z", "X"):
                parts = [
                    blk.operators[f"inconclusive_{b}"],
                    blk.operators[f"error_{b}"],
                    blk.operators[f"match_{b}"],
                ]
                for op in parts:
                    assert np.allclose(op, op.T, atol=1e-12)
                    assert np.linalg.eigvalsh(op).min() > -1e-12
                assert np.abs(sum(parts) - eye).max() < 1e-10
                # third-step pair is a complete POVM
                third = blk.operators[f"outcome_error_{b}"] + blk.operators[f"outcome_match_{b}"]
                assert np.abs(third - eye).max() < 1e-10
                # common filter dominates the basis filters
                diff = blk.operators["common_filter"] - blk.operators[f"conclusive_{b}"]
                assert np.linalg.eigvalsh(diff).min() > -1e-12

    def test_photon_cutoff_refusal(self):
        with pytest.raises(ValueError, match=r"^n must be a finite integer in \[0, 64\], got 100$"):
            build_block_povm(100, (0.7,) * 4, (1e-6,) * 4)

    @pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
    @pytest.mark.parametrize("name", ["eta", "dc"])
    def test_names_the_array_with_an_entry_out_of_range(self, name, bad):
        box = {"eta": np.full((3, 4), 0.7), "dc": np.full((3, 4), 1e-6)}
        box[name][1, 2] = bad
        for build in (build_block_povm, block_deltas):
            with pytest.raises(ValueError, match=rf"^{name}\[1, 2\] must be a finite number"):
                build(1, **box)

    def test_names_a_scalar_out_of_range_without_an_index(self):
        with pytest.raises(ValueError, match=r"^eta must be a finite number in \[0, 1\], got 1.5$"):
            block_deltas(1, 1.5, 1e-6)
        with pytest.raises(ValueError, match=r"^dc must be a finite number in \[0, 1\], got -1.0$"):
            block_deltas(1, (0.7,) * 4, -1.0)

    @pytest.mark.parametrize(
        "build, eta_shape, dc_shape, name",
        [
            *((build_block_povm, shape, shape, "eta") for shape in [(3,), (5,), (), (1, 4)]),
            *((build, (4,), shape, "dc") for build in (build_block_povm, block_deltas) for shape in [(5,), (2, 4)]),
            (block_deltas, (2, 4), (4,), "dc"),
            (block_deltas, (2, 5), (2, 5), "eta"),
        ],
        ids=lambda v: getattr(v, "__name__", str(v).replace(" ", "")),
    )
    def test_names_the_array_of_the_wrong_shape(self, build, eta_shape, dc_shape, name):
        # A fifth entry used to enter the common filter's maximum as a
        # detector, and a (1, 4) point gave a common filter of shape (1,).
        with pytest.raises(ValueError, match=f"^{name} must have"):
            build(1, np.full(eta_shape, 0.7), np.full(dc_shape, 1e-6))


class TestOracleDeltas:
    def test_zero_tolerance_is_zero(self):
        d = oracle_deltas(REFERENCE, n_max=4, interior_samples=0)
        assert abs(d.delta1) < 1e-10
        assert abs(d.delta2) < 1e-10

    @pytest.mark.parametrize("tol", [0.005, 0.01, 0.02])
    def test_dominated_by_closed_form(self, tol):
        spec = DetectorSpec(0.7, 1e-6, tol, tol)
        oracle = oracle_deltas(spec, n_max=4, interior_samples=8, seed=2)
        closed = closed_form_deltas(spec)
        assert oracle.delta1 <= closed.delta1 + 1e-9
        assert oracle.delta2 <= closed.delta2 + 1e-9
        assert oracle.delta1 > 0.0
        assert oracle.delta2 > 0.0

    @settings(max_examples=60)
    @given(
        eta_det=st.floats(0.05, 0.95),
        d_det=st.one_of(st.just(0.0), st.floats(1e-9, 1e-3)),
        delta_eta=st.floats(0.0, 0.05),
        delta_dc=st.floats(0.0, 0.05),
        n_max=st.integers(1, MAX_BLOCK_PHOTONS),
        interior_samples=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_oracle_never_exceeds_closed_form(
        self, eta_det, d_det, delta_eta, delta_dc, n_max, interior_samples, seed
    ):
        # d_min = d_det (1 - delta_dc) stays > 0 whenever d_det > 0.
        spec = DetectorSpec(eta_det, d_det, delta_eta, delta_dc)
        oracle = oracle_deltas(spec, n_max=n_max, interior_samples=interior_samples, seed=seed)
        closed = closed_form_deltas(spec)
        assert oracle.delta1 <= closed.delta1 + 1e-12
        assert oracle.delta2 <= closed.delta2 + 1e-12

    @pytest.mark.parametrize(
        "spec",
        [
            DetectorSpec(0.7, 1e-6, 0.01, 0.0),
            DetectorSpec(0.7, 1e-6, 0.0, 0.01),
            DetectorSpec(0.7, 0.0, 0.01, 0.01),
        ],
        ids=["flat_dark_counts", "flat_efficiencies", "zero_dark_floor"],
    )
    def test_flat_axis_dominated_by_closed_form(self, spec):
        # One flat box axis (lo == hi) must still sample the interior.
        oracle = oracle_deltas(spec, n_max=4, interior_samples=8, seed=2)
        closed = closed_form_deltas(spec)
        assert 0.0 < oracle.delta1 <= closed.delta1 + 1e-12
        assert 0.0 < oracle.delta2 <= closed.delta2 + 1e-12

    @pytest.mark.parametrize(
        "args, kwargs, expect",
        [
            ((0.7, 1e-6, 0.01, 0.01), {}, (0.039603862376315226, 0.019801970401801317)),
            ((0.7, 1e-6, 0.01, 0.0), {"n_max": 6, "interior_samples": 8},
             (0.03960386138621763, 0.019801940594079248)),
            ((0.7, 1e-6, 0.0, 0.01), {"n_max": 6, "interior_samples": 8},
             (0.019801970401850166, 0.019801970401801317)),
            ((0.7, 0.0, 0.01, 0.01), {"n_max": 6, "interior_samples": 8},
             (0.039603960396040555, 0.01980198019801982)),
            ((0.7, 1e-3, 0.05, 0.02), {"n_max": 6, "interior_samples": 8, "seed": 3},
             (0.19000988958655363, 0.09505152003809536)),
            ((0.9, 1e-5, 0.1, 0.5), {"n_max": 4, "interior_samples": 0},
             (0.6666649999853087, 0.6666649999848948)),
        ],
        ids=["delta_defaults", "flat_dark_counts", "flat_efficiencies", "zero_dark_floor",
             "wide_box", "corners_only"],
    )
    def test_pinned_values(self, args, kwargs, expect):
        # Reference values from a dense eigen-solve of every block operator
        # at each box point; the structured spectra must reproduce them.
        d = oracle_deltas(DetectorSpec(*args), **kwargs)
        assert d.delta1 == pytest.approx(expect[0], abs=1e-12)
        assert d.delta2 == pytest.approx(expect[1], abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"n_max": 0}, "n_max"), ({"n_max": MAX_BLOCK_PHOTONS + 1}, "n_max"),
         ({"seed": -1}, "seed"), ({"interior_samples": -1}, "interior_samples")],
    )
    def test_rejects_out_of_range_settings(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            oracle_deltas(DetectorSpec(0.7, 1e-6, 0.01, 0.01), **kwargs)

    @pytest.mark.parametrize("seed", range(3))
    def test_interior_is_a_latin_hypercube(self, seed):
        # Past the 256 corners, every axis hits each of its 16 strata once.
        spec = DetectorSpec(0.7, 1e-6, 0.01, 0.02)
        points = _box_points(spec, interior_samples=16, seed=seed)
        assert points.shape == (256 + 16, 8)
        lo = np.array([spec.eta_min] * 4 + [spec.d_min] * 4)
        hi = np.array([spec.eta_max] * 4 + [spec.d_max] * 4)
        strata = np.floor(16 * (points[256:] - lo) / (hi - lo)).astype(int)
        for axis in strata.T:
            assert sorted(axis) == list(range(16))

    @pytest.mark.parametrize("seed", range(3))
    def test_block_deltas_match_dense_operators(self, seed):
        # The batched split agrees with the filtered X-error operators
        # rebuilt from the dense block, point by point.
        rng = np.random.default_rng(40 + seed)
        eta = rng.uniform(0.3, 1.0, (5, 4))
        dc = rng.choice([0.0, 1e-6, 1e-3, 0.05], (5, 4))
        for n in range(7):
            d1, d2 = block_deltas(n, eta, dc)
            for p in range(len(eta)):
                ops = build_block_povm(n, tuple(eta[p]), tuple(dc[p])).operators
                after_z, after_x = _filtered_x_errors_reference(ops)
                diff = after_z - after_x
                assert d1[p] == pytest.approx(2 * np.abs(np.linalg.eigvalsh(diff)).max(), abs=1e-12)
                rest = np.eye(2 * (n + 1)) - ops["residual_filter_Z"]
                assert d2[p] == pytest.approx(np.abs(np.linalg.eigvalsh(rest)).max(), abs=1e-12)

    @settings(max_examples=40)
    @given(
        n=st.integers(0, 8),
        eta=st.tuples(*[st.floats(0.3, 1.0)] * 4),
        dc=st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-7, 0.05))] * 4),
    )
    def test_filtered_x_errors_split_along_alice_x_bit(self, n, eta, dc):
        # From generic PSD roots of the dense filters, the difference commutes
        # with sigma_x (x) I, which licenses block_deltas' split, and both
        # operators match build_block_povm's, formed by their definition.
        ops = build_block_povm(n, eta, dc).operators
        after_z, after_x = _filtered_x_errors_reference(ops)
        diff = after_z - after_x
        flip = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(n + 1))
        assert np.abs(flip @ diff - diff @ flip).max() <= 1e-12
        assert np.abs(after_z - ops["x_error_after_Z_filter"]).max() <= 1e-12
        assert np.abs(after_x - ops["x_error_after_X_filter"]).max() <= 1e-12

    @settings(max_examples=60)
    @given(
        n=st.integers(0, 12),
        eta=st.tuples(*[st.floats(0.5, 1.0)] * 4),
        dc=st.tuples(*[st.floats(0.0, 0.05)] * 4),
    )
    def test_block_deltas_invariant_under_detector_swaps(self, n, eta, dc):
        # Swapping the two detectors of a basis, efficiency and dark count
        # together, is undone by relabelling Alice's bit in that basis, so
        # both per-block deltas are unchanged; oracle_deltas relies on this.
        # The eigen-solve's rounding grows with delta1: below half efficiency
        # ratios, where delta1 nears its cap of 4, the spread reaches 3e-15.
        eta = np.array(eta) / max(eta)
        d1, d2 = block_deltas(n, eta[SWAPS], np.array(dc)[SWAPS])
        assert np.ptp(d1) <= 1e-15
        assert np.ptp(d2) <= 1e-15

    @pytest.mark.parametrize(
        "spec, seed",
        [
            (DetectorSpec(0.7, 1e-6, 0.01, 0.01), 0),
            (DetectorSpec(0.7, 1e-6, 0.01, 0.0), 1),
            (DetectorSpec(0.7, 1e-6, 0.0, 0.01), 2),
            (DetectorSpec(0.7, 0.0, 0.01, 0.01), 3),
            (DetectorSpec(0.7, 1e-3, 0.05, 0.02), 4),
        ],
        ids=["delta_defaults", "flat_dark_counts", "flat_efficiencies", "zero_dark_floor",
             "wide_box"],
    )
    def test_orbit_rows_match_full_box(self, spec, seed):
        # The reduced rows hold exactly one row of each detector-swap orbit
        # of the renormalized box rows, and give the maximum over all of them.
        points = _box_points(spec, interior_samples=16, seed=seed)
        eta = points[:, :4] / points[:, :4].max(axis=1, keepdims=True)

        def orbits(eta, dc):
            return {frozenset(tuple(e[s]) + tuple(d[s]) for s in SWAPS) for e, d in zip(eta, dc)}

        reduced = _orbit_rows(points)
        assert orbits(*reduced) == orbits(eta, points[:, 4:])
        assert len(reduced[0]) == len(orbits(*reduced))
        full = [block_deltas(n, eta, points[:, 4:]) for n in range(11)]
        d = oracle_deltas(spec, seed=seed)
        assert abs(d.delta1 - max(d1.max() for d1, _ in full)) <= 1e-15
        assert abs(d.delta2 - max(d2.max() for _, d2 in full)) <= 1e-15

    @settings(max_examples=100)
    @given(
        n=st.integers(0, MAX_BLOCK_PHOTONS),
        rows=st.lists(
            st.tuples(
                st.tuples(*[st.just(0.0) | st.floats(0.0, 1.0)] * 4),
                st.tuples(*[st.just(0.0) | st.floats(1e-12, 0.5, exclude_max=True)] * 4),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_delta1_bound_dominates_every_row(self, n, rows):
        # oracle_deltas skips a row whose slackened bound cannot beat the
        # maximum found so far, so the inequality must hold on every row:
        # renormalized efficiencies, blind detectors (a row of four becomes
        # all ones) and rows of four equal efficiencies.
        points = np.array([(e[:1] * 4 if equal else e) + d for e, d, equal in rows])
        eta, dc = _orbit_rows(points)
        d1, _ = block_deltas(n, eta, dc)
        _, spectra = _delta_parts(n, eta, dc)
        assert np.all(d1 <= _delta1_bound(*spectra) * (1.0 + 1e-9) + EIGEN_TOL)

    @settings(max_examples=40)
    @given(
        eta_det=st.floats(0.05, 0.95),
        d_det=st.just(0.0) | st.floats(1e-9, 3e-2),
        eta_room=st.just(0.0) | st.floats(0.0, 1.0),
        delta_dc=st.just(0.0) | st.floats(0.0, 0.9),
        n_max=st.integers(1, 20),
        interior_samples=st.sampled_from([0, 1, 16]),
        seed=st.integers(0, 2**16),
    )
    def test_pruned_oracle_equals_the_unpruned_maximum(
        self, eta_det, d_det, eta_room, delta_dc, n_max, interior_samples, seed
    ):
        # Skipping the rows whose bound cannot win leaves the result
        # bit-identical to solving every block on every orbit row.
        spec = DetectorSpec(eta_det, d_det, eta_room * min(1.0, 1.0 / eta_det - 1.0), delta_dc)
        eta, dc = _orbit_rows(_box_points(spec, interior_samples, seed))
        per_block = [block_deltas(n, eta, dc) for n in range(n_max + 1)]
        expect = DeltaPair(
            min(4.0, max(float(d1.max()) for d1, _ in per_block)),
            min(1.0, max(float(d2.max()) for _, d2 in per_block)),
        )
        assert oracle_deltas(spec, n_max, interior_samples, seed) == expect

    @staticmethod
    def _solves(monkeypatch) -> list:
        """Shapes (rows, 2, N+1, N+1) of every eigvalsh call from now on."""
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(mat):
            shapes.append(mat.shape)
            return eigvalsh(mat)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return shapes

    @pytest.mark.parametrize("d_det", [1e-6, 1e-4])
    @pytest.mark.parametrize("tol", [0.005, 0.01, 0.02, 0.05])
    def test_delta_defaults_solve_only_blocks_0_and_1(self, monkeypatch, tol, d_det):
        # Solving every block would take 11 calls on 1,177 rows (107 orbit
        # rows per block); past N = 1 no row's bound reaches the maximum.
        shapes = self._solves(monkeypatch)
        oracle_deltas(DetectorSpec(0.7, d_det, tol, tol))
        assert [shape[-1] - 1 for shape in shapes] == [0, 1]
        assert sum(shape[0] for shape in shapes) <= 204

    @pytest.mark.parametrize("interior_samples", [0, 16])
    def test_photon_cap_adds_no_solves(self, monkeypatch, interior_samples):
        shapes = self._solves(monkeypatch)
        spec = DetectorSpec(0.7, 1e-6, 0.01, 0.01)
        oracle_deltas(spec, n_max=10, interior_samples=interior_samples)
        at_10 = shapes[:]
        shapes.clear()
        oracle_deltas(spec, n_max=MAX_BLOCK_PHOTONS, interior_samples=interior_samples)
        assert len(shapes) <= len(at_10)
        assert sum(shape[0] for shape in shapes) <= sum(shape[0] for shape in at_10)

    def test_failed_eigen_solve_names_its_block(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(RuntimeError, match="N=0"):
            oracle_deltas(DetectorSpec(0.7, 1e-6, 0.01, 0.01), n_max=2)

    def test_block_max_attained_at_corners(self):
        # Dense box sampling never beats the corner scan for N <= 3.
        spec = DetectorSpec(0.7, 1e-6, 0.01, 0.01)
        corner = oracle_deltas(spec, n_max=3, interior_samples=0)
        dense = oracle_deltas(spec, n_max=3, interior_samples=64, seed=5)
        assert dense.delta1 <= corner.delta1 + 1e-9
        assert dense.delta2 <= corner.delta2 + 1e-9

    def test_block_contributions_decay_beyond_n1(self):
        # After pulling the common loss into the channel, the per-block
        # metrics peak at N = 1 (plus the vacuum dark-count block) and decay
        # geometrically up to the photon cap, so the default cutoff is
        # insensitive.
        spec = DetectorSpec(0.7, 1e-6, 0.01, 0.01)
        scale = 1.0 / spec.eta_max
        eta = (spec.eta_min * scale, spec.eta_min * scale, 1.0, 1.0)
        dc = (spec.d_min, spec.d_min, spec.d_max, spec.d_max)
        per_block = [block_deltas(n, eta, dc) for n in range(MAX_BLOCK_PHOTONS + 1)]
        d1s, d2s = ([float(x) for x in d] for d in zip(*per_block))
        assert max(d1s) == d1s[1]
        for d in (d1s, d2s):
            # Strictly decreasing from N = 1 until it reaches exact zero.
            assert all(a > b or a == b == 0.0 for a, b in zip(d[1:], d[2:]))
            assert d[8] < 1e-10
            assert max(d[10:]) < 1e-15
        # Over every corner of the box, too: blocks beyond N = 9 add nothing.
        o10 = oracle_deltas(spec, n_max=10, interior_samples=0)
        for n_max in (4, MAX_BLOCK_PHOTONS):
            o = oracle_deltas(spec, n_max=n_max, interior_samples=0)
            assert o.delta1 == pytest.approx(o10.delta1, abs=1e-12)
            assert o.delta2 == pytest.approx(o10.delta2, abs=1e-12)

    def test_per_block_delta1_analytic_dominance(self):
        # Each block's numeric delta1 stays below the analytic per-block
        # bound 4|1 - sqrt((1-(1-d_min)^2 (1-eta_min)^N) /
        #                  (1-(1-d_max)^2 (1-eta_max)^N))|
        # evaluated at that parameter point's own extremes.
        rng = np.random.default_rng(23)
        for _ in range(15):
            eta = rng.uniform(0.5, 1.0, 4)
            eta = tuple(eta / eta.max())
            dc = tuple(rng.uniform(1e-6, 0.02, 4))
            e_lo, e_hi = min(eta), max(eta)
            d_lo, d_hi = min(dc), max(dc)
            for n in range(1, 5):
                d1, _ = block_deltas(n, eta, dc)
                num = 1 - (1 - d_lo) ** 2 * (1 - e_lo) ** n
                den = 1 - (1 - d_hi) ** 2 * (1 - e_hi) ** n
                bound = 4 * abs(1 - math.sqrt(num / den))
                assert d1 <= bound + 1e-9, (n, eta, dc)

    def test_delta2_oracle_is_tight(self):
        # The closed-form delta2 carries no triangle-inequality slack: the
        # oracle attains it exactly at the worst corner.
        for tol in (0.005, 0.01, 0.02):
            spec = DetectorSpec(0.7, 1e-6, tol, tol)
            oracle = oracle_deltas(spec, n_max=4, interior_samples=0)
            closed = closed_form_deltas(spec)
            assert oracle.delta2 == pytest.approx(closed.delta2, abs=1e-12)

    def test_outcome_error_diagonal_closed_form(self):
        # In the key basis everything is simultaneously diagonal, so the
        # third-step error operator has the explicit entries
        # (1 + silent_corr)(1 - silent_wrong) / (2 (1 - silent_corr*silent_wrong)).
        eta = (0.7, 0.65, 0.7, 0.7)
        dc = (1e-3, 2e-3, 1e-3, 1e-3)
        for n in range(4):
            blk = build_block_povm(n, eta, dc)
            g = blk.operators["outcome_error_Z"]
            for i in range(n + 1):  # i photons in mode 1
                a = (1 - dc[0]) * (1 - eta[0]) ** (n - i)
                c = (1 - dc[1]) * (1 - eta[1]) ** i
                expect_bit0 = (1 + a) * (1 - c) / (2 * (1 - a * c))
                expect_bit1 = (1 + c) * (1 - a) / (2 * (1 - a * c))
                assert g[i, i] == pytest.approx(expect_bit0, rel=1e-10)
                assert g[n + 1 + i, n + 1 + i] == pytest.approx(expect_bit1, rel=1e-10)

    def test_per_block_delta2_monotone_to_corner(self):
        # The worst per-block discard weight lands on the extreme corner
        # (all-min efficiencies and dark rates for the key basis).
        spec = DetectorSpec(0.7, 1e-6, 0.01, 0.01)
        rng = np.random.default_rng(9)
        scale = 1.0 / spec.eta_max
        for n in range(4):
            corner_eta = (spec.eta_min * scale,) * 2 + (spec.eta_max * scale,) * 2
            corner_dc = (spec.d_min,) * 2 + (spec.d_max,) * 2
            _, d2_corner = block_deltas(n, corner_eta, corner_dc)
            for _ in range(10):
                eta = tuple(rng.uniform(spec.eta_min, spec.eta_max, 4) * scale)
                dc = tuple(rng.uniform(spec.d_min, spec.d_max, 4))
                _, d2 = block_deltas(n, eta, dc)
                assert d2 <= d2_corner + 1e-9
