"""Tests of the decoy-state bounds."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bb84mm.channel_sim import ChannelSpec, sample_observations
from bb84mm.decoy import (
    DecoyConfig,
    Observations,
    OutcomeCounts,
    bound_single_lower,
    bound_single_upper,
    bound_vacuum_lower,
    decoy_bounds,
    intensity_given_photon,
    photon_given_intensity,
    shifted_counts,
    tau,
)
from bb84mm.stat_bounds import hoeffding_decoy_dev

CFG = DecoyConfig.reference()


class TestConfig:
    def test_rejects_bad_orderings(self):
        with pytest.raises(ValueError):
            DecoyConfig((0.2, 0.1, 0.15), (1 / 3, 1 / 3, 1 / 3))
        with pytest.raises(ValueError):
            DecoyConfig((0.5, 0.3, 0.3), (1 / 3, 1 / 3, 1 / 3))
        with pytest.raises(ValueError):
            DecoyConfig((0.9, 0.1, 0.0), (0.5, 0.5, 0.0))
        with pytest.raises(ValueError):
            DecoyConfig((0.9, 0.1, 0.0), (0.5, 0.4, 0.2))


class TestPhotonStatistics:
    def test_vacuum_source(self):
        assert photon_given_intensity(0, 0.0) == 1.0
        assert photon_given_intensity(3, 0.0) == 0.0

    def test_direct_values(self):
        assert photon_given_intensity(1, 0.9) == pytest.approx(0.9 * math.exp(-0.9), rel=1e-12)
        assert photon_given_intensity(2, 0.1) == pytest.approx(
            math.exp(-0.1) * 0.01 / 2, rel=1e-12
        )

    def test_pmf_normalizes(self):
        for mu in (0.0, 0.1, 0.9):
            total = sum(photon_given_intensity(m, mu) for m in range(51))
            assert total == pytest.approx(1.0, abs=1e-15)

    def test_tau_reference_value(self):
        # Oracle: (e^-0.9 + e^-0.1 + 1)/3.
        expect = (math.exp(-0.9) + math.exp(-0.1) + 1.0) / 3.0
        assert expect == pytest.approx(0.77047, abs=1e-5)  # self-check
        assert tau(0, CFG) == pytest.approx(expect, rel=1e-12)

    def test_tau_degenerate_mixture(self):
        cfg = DecoyConfig((0.9, 0.1, 0.0), (1.0 - 2e-9, 1e-9, 1e-9))
        for m in range(5):
            assert tau(m, cfg) == pytest.approx(photon_given_intensity(m, 0.9), rel=1e-6)

    def test_tau_normalizes(self):
        assert sum(tau(m, CFG) for m in range(51)) == pytest.approx(1.0, abs=1e-12)

    def test_intensity_given_photon(self):
        for m in range(6):
            w = intensity_given_photon(m, CFG)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            # Bayes consistency: p(mu|m) tau_m = p_mu p(m|mu).
            for k in range(3):
                assert w[k] * tau(m, CFG) == pytest.approx(
                    CFG.probabilities[k] * photon_given_intensity(m, CFG.intensities[k]),
                    abs=1e-15,
                )
        # the vacuum intensity cannot produce photons
        assert intensity_given_photon(2, CFG)[2] == 0.0


class TestShiftedCounts:
    def test_all_zero(self):
        plus, minus = shifted_counts(OutcomeCounts((0, 0, 0)), CFG, 1e-24)
        assert np.all(plus == 0.0)
        assert np.all(minus == 0.0)

    def test_frozen_example(self):
        # n_mu2 = 1e6, n_total = 2e6, p = 1/3, mu2 = 0.1, eps^2 = 1e-24:
        # 3 e^0.1 (1e6 - 7480.3) = 3.29071e6.
        counts = OutcomeCounts((9e5, 1e6, 1e5))
        t = hoeffding_decoy_dev(2e6, 1e-24)
        expect = 3 * math.exp(0.1) * (1e6 - t)
        assert expect == pytest.approx(3.290712e6, rel=1e-6)  # oracle self-check
        _, minus = shifted_counts(counts, CFG, 1e-24)
        assert minus[1] == pytest.approx(expect, rel=1e-12)

    def test_branches_straddle_center(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            counts = OutcomeCounts(tuple(rng.integers(0, 10**6, 3).astype(float)))
            plus, minus = shifted_counts(counts, CFG, 1e-12)
            center = np.exp(CFG.intensities) / np.array(CFG.probabilities) * np.array(
                counts.counts
            )
            assert np.all(plus >= center - 1e-9)
            assert np.all(minus <= center + 1e-9)

    def test_minus_clamped_at_zero(self):
        _, minus = shifted_counts(OutcomeCounts((1, 2, 1)), CFG, 1e-24)
        assert np.all(minus >= 0.0)


class TestAnalyticBounds:
    def test_all_zero_counts(self):
        zero = OutcomeCounts((0, 0, 0))
        assert bound_vacuum_lower(zero, CFG, 1e-24) == 0.0
        assert bound_single_lower(zero, CFG, 1e-24) == 0.0
        assert bound_single_upper(zero, CFG, 1e-24) == 0.0

    def test_vacuum_decoy_isolates_zero_photon_yield(self):
        # mu3 = 0 reduces the vacuum bound to tau0 * n_mu3_minus.
        counts = OutcomeCounts((5e5, 2e5, 1e5))
        _, minus = shifted_counts(counts, CFG, 1e-24)
        expect = tau(0, CFG) * minus[2]
        assert bound_vacuum_lower(counts, CFG, 1e-24) == pytest.approx(expect, rel=1e-12)

    def test_interval_sanity_on_random_counts(self):
        # Random (unphysical) counts may cross the one-photon interval
        # (lower > upper), but every bound stays a plain float in [0, total].
        rng = np.random.default_rng(17)
        crossed = 0
        for _ in range(200):
            counts = OutcomeCounts(tuple(rng.integers(0, 10**7, 3).astype(float)))
            bounds = decoy_bounds(counts, CFG, 1e-12)
            assert all(type(v) is float and 0.0 <= v <= counts.total for v in bounds)
            crossed += bounds[1] > bounds[2]
        assert 0 < crossed < 200

    @given(
        counts=st.tuples(*[st.floats(0.0, 1e12)] * 3) | st.tuples(*[st.integers(0, 10)] * 3),
        eps_sq=st.floats(1e-30, 0.5),
        vacuum_decoy=st.booleans(),
    )
    def test_wrappers_pick_from_decoy_bounds(self, counts, eps_sq, vacuum_decoy):
        cfg = CFG if vacuum_decoy else DecoyConfig((0.5, 0.2, 0.01), (0.6, 0.3, 0.1))
        c = OutcomeCounts(counts)
        assert decoy_bounds(c, cfg, eps_sq) == (
            bound_vacuum_lower(c, cfg, eps_sq),
            bound_single_lower(c, cfg, eps_sq),
            bound_single_upper(c, cfg, eps_sq),
        )

    def test_upper_bound_monotone_in_counts(self):
        base = OutcomeCounts((1e6, 1e6, 1e5))
        hi0 = bound_single_upper(base, CFG, 1e-12)
        bumped = OutcomeCounts((1e6, 1.2e6, 1e5))
        hi1 = bound_single_upper(bumped, CFG, 1e-12)
        assert hi1 >= hi0

    def test_honest_sandwich_holds(self):
        # Sampled honest runs: bounds must contain the true tagged counts
        # in every run (budget 9 eps^2 with eps = 1e-12 predicts 0 misses).
        ch = ChannelSpec.reference(loss_db=10.0, n_total=10**6)
        for seed in range(20):
            obs, tags = sample_observations(ch, CFG, seed=seed, with_tags=True)
            for counts, tag in (
                (obs.counts_x(), tags.x),
                (obs.counts_x_err(), tags.x_err),
                (obs.counts_k(), tags.k),
            ):
                assert bound_vacuum_lower(counts, CFG, 1e-24) <= tag[0]
                assert bound_single_lower(counts, CFG, 1e-24) <= tag[1]
                assert tag[1] <= bound_single_upper(counts, CFG, 1e-24)


class TestObservations:
    def test_error_counts(self):
        obs = Observations(n_x=(100, 50, 10), n_k=(80, 40, 5), e_x=(0.1, 0.2, 0.5), e_z=0.01)
        assert obs.n_x_err == (10.0, 10.0, 5.0)
        assert obs.counts_x().total == 160
        # An error count survives its rate although 49 * (1 / 49) is
        # 0.9999999999999999; real-valued counts away from an integer stay.
        obs = Observations(n_x=(49, 98, 10.5), n_k=(1, 1, 1), e_x=(1 / 49, 2 / 98, 0.3), e_z=0.0)
        assert obs.n_x_err == (1.0, 2.0, 10.5 * 0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Observations(n_x=(-1, 0, 0), n_k=(0, 0, 0), e_x=(0, 0, 0), e_z=0.0)
        with pytest.raises(ValueError):
            Observations(n_x=(1, 0, 0), n_k=(0, 0, 0), e_x=(1.5, 0, 0), e_z=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="n_x"):
            Observations(n_x=(bad, 0, 0), n_k=(0, 0, 0), e_x=(0, 0, 0), e_z=0.0)
        with pytest.raises(ValueError, match="n_k"):
            Observations(n_x=(0, 0, 0), n_k=(0, 0, bad), e_x=(0, 0, 0), e_z=0.0)
        with pytest.raises(ValueError, match="e_x"):
            Observations(n_x=(0, 0, 0), n_k=(0, 0, 0), e_x=(0, bad, 0), e_z=0.0)
        with pytest.raises(ValueError, match="e_z"):
            Observations(n_x=(0, 0, 0), n_k=(0, 0, 0), e_x=(0, 0, 0), e_z=bad)
        with pytest.raises(ValueError, match="counts"):
            OutcomeCounts((1.0, bad, 2.0))
