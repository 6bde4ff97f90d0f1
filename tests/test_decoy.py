"""Tests of the decoy-state bounds."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bb84mm.channel_sim import ChannelSpec, sample_observations
from bb84mm.decoy import (
    DecoyConfig,
    Observations,
    OutcomeCounts,
    _poisson,
    bound_single_lower,
    bound_single_upper,
    bound_vacuum_lower,
    decoy_bounds,
    intensity_given_photon,
    tau,
)
from bb84mm.stat_bounds import hoeffding_decoy_dev

CFG = DecoyConfig.reference()


@st.composite
def valid_configs(draw):
    """Random valid configs: mu1 > mu2 + mu3, mu2 > mu3 >= 0, 1e-6 <= mu1 <=
    100, and probabilities of at least about 1e-6 summing to 1.  (Below
    mu1 ~ 1e-154 the one-photon bound's denominator underflows to 0 and
    ``DecoyConfig`` rejects the config.)"""
    mu1 = draw(st.floats(1e-6, 100.0))
    mu2 = mu1 * draw(st.floats(0.01, 0.99))
    mu3 = draw(st.just(0.0) | st.floats(0.0, 0.99).map(lambda f: min(mu2, mu1 - mu2) * f))
    assume(mu1 > mu2 + mu3 and mu2 > mu3)
    w1, w2, w3 = draw(st.tuples(*[st.floats(1e-6, 1.0)] * 3))
    p1, p2 = w1 / (w1 + w2 + w3), w2 / (w1 + w2 + w3)
    assume(1.0 - p1 - p2 > 0.0)
    return DecoyConfig((mu1, mu2, mu3), (p1, p2, 1.0 - p1 - p2))


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

    @pytest.mark.parametrize(
        "intensities",
        [
            (1.62e-261, 1e-261, 0.0),
            (2e-162, 1e-162, 0.0),
            (1.059798765666097, 0.8340674769294725, 0.22573128873662437),
        ],
        ids=["mu1_squared_underflows", "denominator_underflows", "denominator_rounds_negative"],
    )
    def test_rejects_intensities_the_one_photon_bound_cannot_divide_by(self, intensities):
        # The ordering rule admits all three.  decoy_bounds divided by zero on
        # the first two; on the third (mu1 one ulp above mu2 + mu3) the rounded
        # denominator is negative, the one-photon lower bound flips sign and
        # clamps to the class total, and the reference 10 dB channel got a
        # positive key where a slightly larger mu1 gives none.
        mu1, mu2, mu3 = intensities
        assert mu1 > mu2 + mu3 and mu2 > mu3
        with pytest.raises(ValueError, match=r"^intensities must keep the one-photon bound's divisors"):
            DecoyConfig(intensities, (1 / 3, 1 / 3, 1 / 3))


class TestPhotonStatistics:
    def test_vacuum_source(self):
        assert _poisson(0, 0.0) == 1.0
        assert _poisson(3, 0.0) == 0.0

    def test_direct_values(self):
        assert _poisson(1, 0.9) == pytest.approx(0.9 * math.exp(-0.9), rel=1e-12)
        assert _poisson(2, 0.1) == pytest.approx(math.exp(-0.1) * 0.01 / 2, rel=1e-12)

    def test_pmf_normalizes(self):
        for mu in (0.0, 0.1, 0.9):
            total = sum(_poisson(m, mu) for m in range(51))
            assert total == pytest.approx(1.0, abs=1e-15)

    def test_tau_reference_value(self):
        # Oracle: (e^-0.9 + e^-0.1 + 1)/3.
        expect = (math.exp(-0.9) + math.exp(-0.1) + 1.0) / 3.0
        assert expect == pytest.approx(0.77047, abs=1e-5)  # self-check
        assert tau(0, CFG) == pytest.approx(expect, rel=1e-12)

    def test_tau_degenerate_mixture(self):
        cfg = DecoyConfig((0.9, 0.1, 0.0), (1.0 - 2e-9, 1e-9, 1e-9))
        for m in range(5):
            assert tau(m, cfg) == pytest.approx(math.exp(-0.9) * 0.9**m / math.factorial(m), rel=1e-6)

    def test_tau_normalizes(self):
        assert sum(tau(m, CFG) for m in range(51)) == pytest.approx(1.0, abs=1e-12)

    def test_intensity_given_photon(self):
        for m in range(6):
            w = intensity_given_photon(m, CFG)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            # Bayes consistency: p(mu|m) tau_m = p_mu p(m|mu).
            for p, mu, w_k in zip(CFG.probabilities, CFG.intensities, w):
                assert w_k * tau(m, CFG) == pytest.approx(
                    p * math.exp(-mu) * mu**m / math.factorial(m), abs=1e-15
                )
        # the vacuum intensity cannot produce photons
        assert intensity_given_photon(2, CFG)[2] == 0.0


class TestShiftedCounts:
    """The Hoeffding shift, seen through the bounds ``decoy_bounds`` forms
    from it."""

    @given(cfg=valid_configs(), eps_sq=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True))
    def test_all_zero(self, cfg, eps_sq):
        # No counts, no deviation: both branches are 0 at any config and eps.
        assert decoy_bounds(OutcomeCounts((0, 0, 0)), cfg, eps_sq) == (0.0, 0.0, 0.0)

    def test_frozen_example(self):
        # n_mu3 = 1e5, n_total = 2e6, p = 1/3, mu3 = 0, eps^2 = 1e-24: the
        # vacuum bound is tau0 3 e^0 (1e5 - 7480.3) = 2.138506e5.
        t = hoeffding_decoy_dev(2e6, 1e-24)
        expect = (math.exp(-0.9) + math.exp(-0.1) + 1.0) * (1e5 - t)
        assert expect == pytest.approx(2.138506e5, rel=1e-6)  # oracle self-check
        vac, _, _ = decoy_bounds(OutcomeCounts((9e5, 1e6, 1e5)), CFG, 1e-24)
        assert vac == pytest.approx(expect, rel=1e-12)

    def test_branches_straddle_center(self):
        # Every bound is monotone in each shifted count, so the bounds at
        # eps^2 = 1e-12 lie outside those at the largest eps^2 below 2,
        # whose shift of at most 1e-4 nearly leaves the counts at the center.
        rng = np.random.default_rng(5)
        for _ in range(20):
            counts = OutcomeCounts(tuple(rng.integers(0, 10**6, 3).astype(float)))
            vac, lower, upper = decoy_bounds(counts, CFG, 1e-12)
            vac_c, lower_c, upper_c = decoy_bounds(counts, CFG, math.nextafter(2.0, 0.0))
            assert vac <= vac_c and lower <= lower_c and upper >= upper_c

    def test_minus_clamped_at_zero(self):
        # n_mu3 = 0 < t: the minus branch of the vacuum count is 0, not
        # -3t, so the one-photon upper bound is tau1 3 e^0.1 (1e6 + t) / 0.1
        # (5 % below the unclamped value) and the vacuum bound is 0.
        counts = OutcomeCounts((1e8, 1e6, 0.0))
        t = hoeffding_decoy_dev(counts.total, 1e-24)
        vac, _, upper = decoy_bounds(counts, CFG, 1e-24)
        assert vac == 0.0
        assert upper == pytest.approx(tau(1, CFG) * 3 * math.exp(0.1) * (1e6 + t) / 0.1, rel=1e-12)


class TestAnalyticBounds:
    def test_all_zero_counts(self):
        zero = OutcomeCounts((0, 0, 0))
        assert bound_vacuum_lower(zero, CFG, 1e-24) == 0.0
        assert bound_single_lower(zero, CFG, 1e-24) == 0.0
        assert bound_single_upper(zero, CFG, 1e-24) == 0.0

    def test_vacuum_decoy_isolates_zero_photon_yield(self):
        # mu3 = 0 reduces the vacuum bound to tau0 * n_mu3_minus.
        counts = OutcomeCounts((5e5, 2e5, 1e5))
        expect = tau(0, CFG) * 3 * (1e5 - hoeffding_decoy_dev(8e5, 1e-24))
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

    @given(
        cfg=valid_configs(),
        counts=st.tuples(*[st.floats(0.0, 1e24) | st.integers(0, 10**24)] * 3),
        eps_sq=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_bounds_match_the_checked_closed_form(self, cfg, counts, eps_sq):
        # The constants decoy_bounds keeps per config are, to the last bit,
        # the ones the public checked functions compute, and its shift is
        # the numpy expression formed here.
        c = OutcomeCounts(counts)
        scale = np.exp(cfg.intensities) / np.asarray(cfg.probabilities)
        n, t = np.asarray(counts, dtype=float), hoeffding_decoy_dev(c.total, eps_sq)
        plus, minus = (scale * (n + t)).tolist(), np.maximum(0.0, scale * (n - t)).tolist()
        tau0, tau1 = tau(0, cfg), tau(1, cfg)
        mu1, mu2, mu3 = cfg.intensities

        def clamp(raw):
            return float(min(c.total, max(0.0, raw)))

        vac = clamp(tau0 * (mu2 * minus[2] - mu3 * plus[1]) / (mu2 - mu3))
        lower = clamp(
            (mu1 * tau1 / (mu1 * (mu2 - mu3) - mu2**2 + mu3**2))
            * (minus[1] - plus[2] - (mu2**2 - mu3**2) / mu1**2 * (plus[0] - vac / tau0))
        )
        upper = clamp(tau1 * (plus[1] - minus[2]) / (mu2 - mu3))
        assert decoy_bounds(c, cfg, eps_sq) == (vac, lower, upper)

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


@pytest.mark.parametrize("entries", [2, 4])
@pytest.mark.parametrize(
    "field, build",
    [
        ("intensities", lambda v: DecoyConfig(v, (1 / 3, 1 / 3, 1 / 3))),
        ("probabilities", lambda v: DecoyConfig((0.9, 0.1, 0.0), v)),
        ("n_x", lambda v: Observations(n_x=v, n_k=(0, 0, 0), e_x=(0, 0, 0), e_z=0.0)),
        ("n_k", lambda v: Observations(n_x=(0, 0, 0), n_k=v, e_x=(0, 0, 0), e_z=0.0)),
        ("e_x", lambda v: Observations(n_x=(0, 0, 0), n_k=(0, 0, 0), e_x=v, e_z=0.0)),
        ("counts", OutcomeCounts),
    ],
)
def test_three_entries_per_intensity(field, build, entries):
    # Entries chosen so that only their number is wrong.
    values = {2: (0.5, 0.5), 4: (0.4, 0.3, 0.2, 0.1)}[entries]
    with pytest.raises(ValueError, match=f"{field} must be 3 .*one per intensity"):
        build(values)
