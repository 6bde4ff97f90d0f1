"""Tests of the honest-channel statistics generator.

The production path collapses the Poisson mixture analytically; the oracle
here brute-forces the same physics by enumerating photon numbers m <= 20,
channel survivals, mode splits, and the four click patterns.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bb84mm import decoy
from bb84mm.channel_sim import (
    ChannelSpec,
    PHOTON_CUTOFF,
    _class_table,
    _detection_probs,
    _outcome_rates,
    expected_observations,
    sample_observations,
)
from bb84mm.decoy import (
    DecoyConfig,
    OutcomeCounts,
    bound_single_lower,
    bound_single_upper,
    bound_vacuum_lower,
    decoy_bounds,
    intensity_given_photon,
    tau,
)
from bb84mm.detector_model import DetectorSpec, closed_form_deltas
from bb84mm.keyrate import EpsilonBudget, key_length_decoy


def outcome_probs_oracle(mu, eta_ch, theta_rad, eta_det, d_det, m_max=20):
    """(conclusive, error) for matched-basis rounds, by exhaustive
    enumeration of click patterns over source photon number m <= m_max."""
    q = math.cos(theta_rad) ** 2
    p_con = p_err = 0.0
    for m in range(m_max + 1):
        w_m = math.exp(-mu) * mu**m / math.factorial(m)
        for k in range(m + 1):  # photons surviving the channel
            w_k = math.comb(m, k) * eta_ch**k * (1 - eta_ch) ** (m - k)
            for j in range(k + 1):  # photons landing in the correct mode
                w_j = math.comb(k, j) * q**j * (1 - q) ** (k - j)
                w = w_m * w_k * w_j
                s_corr = (1 - d_det) * (1 - eta_det) ** j
                s_wrong = (1 - d_det) * (1 - eta_det) ** (k - j)
                both_silent = s_corr * s_wrong
                double = 1 - s_corr - s_wrong + both_silent
                p_con += w * (1 - both_silent)
                p_err += w * ((s_corr - both_silent) + 0.5 * double)
    return p_con, p_err


REF_DET = DetectorSpec(eta_det=0.7, d_det=1e-6)


def channel(eta_ch, theta_deg, eta_det=0.7, d_det=1e-6, n_total=10**6):
    return ChannelSpec(eta_ch, theta_deg, DetectorSpec(eta_det=eta_det, d_det=d_det), n_total)


def poisson_rates(mu, ch):
    """(conclusive, error) at intensity mu under the Poisson silence law."""
    f_ok, f_bad = _detection_probs(ch)
    return _outcome_rates(
        math.exp(-mu * f_ok), math.exp(-mu * f_bad), math.exp(-mu * (f_ok + f_bad)), ch.detector.d_det
    )


class TestExpectedObservations:
    def test_against_enumeration_oracle(self):
        eta_ch = 10 ** (-1.0)  # 10 dB
        theta = math.radians(2.0)
        for mu in (0.9, 0.1, 0.0):
            con_o, err_o = outcome_probs_oracle(mu, eta_ch, theta, 0.7, 1e-6)
            con, err = poisson_rates(mu, channel(eta_ch, 2.0))
            assert con == pytest.approx(con_o, rel=1e-10)
            assert err == pytest.approx(err_o, rel=1e-10)

    def test_reference_10db_golden(self):
        # Frozen from the enumeration oracle above (first verified run).
        ch = ChannelSpec.reference(loss_db=10.0, n_total=10**12)
        obs = expected_observations(ch, DecoyConfig.reference())
        assert obs.n_x[0] == pytest.approx(5.0882003497e9, rel=1e-8)
        assert obs.n_x[1] == pytest.approx(5.8146192622e8, rel=1e-8)
        assert obs.n_x[2] == pytest.approx(1.6666658334e5, rel=1e-8)
        assert obs.e_x[0] == pytest.approx(1.2342152972e-3, rel=1e-8)
        # Vacuum-intensity clicks are dark-count driven: error rate 1/2.
        assert obs.e_x[2] == pytest.approx(0.5, rel=1e-10)
        assert obs.e_z == pytest.approx(1.2618224150e-3, rel=1e-8)
        assert obs.n_k[0] == pytest.approx(4.8337903323e9, rel=1e-8)
        assert all(n > 0 for n in obs.n_x)
        assert all(n > 0 for n in obs.n_k)
        assert all(type(v) is float for v in (*obs.n_x, *obs.n_k, *obs.e_x, obs.e_z))

    def test_lossless_noiseless_limit(self):
        mu = 0.5
        con, err = poisson_rates(mu, channel(1.0, 0.0, eta_det=1.0, d_det=0.0))
        assert err == pytest.approx(0.0, abs=1e-15)
        assert con == pytest.approx(1.0 - math.exp(-mu), rel=1e-12)

    def test_dark_counts_only_gives_half_error_rate(self):
        # Vanishing transmission: clicks are dark-count driven, bits random.
        con, err = poisson_rates(0.9, channel(1e-12, 0.0, d_det=1e-4))
        assert err / con == pytest.approx(0.5, abs=1e-6)

    def test_aligned_dark_free_channel_has_zero_error(self):
        # The error rate rounds to -5e-17 here unless clipped, which
        # Observations rejects; the class table would hold negative entries.
        ch = channel(10**-0.1, 0.0, eta_det=1.0, d_det=0.0)
        obs = expected_observations(ch, DecoyConfig((1.0, 0.1, 0.0), (1 / 3, 1 / 3, 1 / 3)))
        assert obs.e_x == (0.0, 0.0, 0.0) and obs.e_z == 0.0
        assert _class_table(ch).min() == 0.0

    def test_counts_scale_linearly_in_n_total(self):
        cfg = DecoyConfig.reference()
        a = expected_observations(ChannelSpec.reference(10.0, n_total=10**10), cfg)
        b = expected_observations(ChannelSpec.reference(10.0, n_total=2 * 10**10), cfg)
        for x, y in zip(a.n_x + a.n_k, b.n_x + b.n_k):
            assert y == pytest.approx(2 * x, rel=1e-12)
        assert a.e_z == pytest.approx(b.e_z, rel=1e-12)

    def test_misalignment_mirror_symmetry(self):
        # theta and 90 - theta swap the roles of error and no-error.
        for theta in (2.0, 10.0, 27.0):
            c1, e1 = poisson_rates(0.9, channel(0.1, theta))
            c2, e2 = poisson_rates(0.9, channel(0.1, 90.0 - theta))
            assert c1 == pytest.approx(c2, rel=1e-12)
            assert e2 == pytest.approx(c1 - e1, rel=1e-10)


class TestClassProbabilities:
    def test_rows_sum_to_one(self):
        table = _class_table(ChannelSpec.reference(loss_db=10.0, n_total=10**6))
        assert table.shape == (PHOTON_CUTOFF + 1, 6)
        assert table.min() >= 0.0
        np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @settings(max_examples=200)
    @given(
        loss_db=st.floats(0.0, 60.0),
        theta=st.floats(0.0, 45.0),
        eta_det=st.floats(sys.float_info.min, 1.0),
        d_det=st.floats(0.0, 1e-3),
        mu=st.floats(0.0, 1.0),
    )
    def test_fixed_m_matches_poisson_mixture(self, loss_db, theta, eta_det, d_det, mu):
        # Mixing the fixed-m table over the Poisson pmf reproduces the
        # closed-form intensity stats.  Both sides subtract from 1 (the
        # conclusive rate is 1 - both_silent), so each carries an absolute
        # rounding error of a few 1e-17; at high loss that is far above
        # 1e-12 of the smallest class probabilities, hence the absolute floor.
        ch = channel(10.0 ** (-loss_db / 10.0), theta, eta_det, d_det)
        table = _class_table(ch)
        assert table.min() >= 0.0
        np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=0, atol=1e-12)

        pmf = np.array([math.exp(-mu) * mu**m / math.factorial(m) for m in range(PHOTON_CUTOFF + 1)])
        con, err = poisson_rates(mu, ch)
        px, pz, pt = ch.p_x_alice * ch.p_x_bob, ch.p_z_alice * ch.p_z_bob, ch.p_z_test
        closed = [px * err, px * (con - err), pz * con * (1 - pt), pz * err * pt, pz * (con - err) * pt]
        assert list(pmf @ table[:, :5]) == pytest.approx(closed, rel=1e-12, abs=1e-16)


class TestSampleObservations:
    def test_deterministic_given_seed(self):
        ch = ChannelSpec.reference(loss_db=10.0, n_total=10**6)
        cfg = DecoyConfig.reference()
        a = sample_observations(ch, cfg, seed=42)
        b = sample_observations(ch, cfg, seed=42)
        assert a == b
        assert all(type(v) is float for v in (*a.n_x, *a.n_k, *a.e_x, a.e_z))
        c = sample_observations(ch, cfg, seed=43)
        assert a != c

    def test_sampled_counts_near_expected(self):
        ch = ChannelSpec.reference(loss_db=10.0, n_total=10**6)
        cfg = DecoyConfig.reference()
        expect = expected_observations(ch, cfg)
        obs = sample_observations(ch, cfg, seed=7)
        for got, mean in zip(obs.n_x + obs.n_k, expect.n_x + expect.n_k):
            sigma = math.sqrt(max(mean, 1.0))
            assert abs(got - mean) < 5.0 * sigma, (got, mean)

    def test_noiseless_run_has_zero_errors(self):
        ch = ChannelSpec(
            transmissivity=1.0,
            misalignment_deg=0.0,
            detector=DetectorSpec(eta_det=1.0, d_det=0.0),
            n_total=10**5,
        )
        obs = sample_observations(ch, DecoyConfig.reference(), seed=3)
        assert all(e == 0.0 for e in obs.e_x)
        assert obs.e_z == 0.0

    def test_rejects_intensities_beyond_the_photon_cutoff(self):
        # mu1 = 20 puts 1.3 % of its mass above the top photon bucket.
        ch = ChannelSpec.reference(loss_db=10.0, n_total=10**6)
        assert sample_observations(ch, DecoyConfig((4.7, 0.1, 0.0), (1 / 3, 1 / 3, 1 / 3)), seed=0)
        # One config twice: the pmf is kept on the config, a rejection is not.
        rejected = DecoyConfig((4.8, 0.1, 0.0), (1 / 3, 1 / 3, 1 / 3))
        for cfg in (rejected, rejected, DecoyConfig((20.0, 0.1, 0.0), (1 / 3, 1 / 3, 1 / 3))):
            with pytest.raises(ValueError, match="intensities"):
                sample_observations(ch, cfg, seed=0)

    def test_rejects_a_negative_seed(self):
        ch = ChannelSpec.reference(loss_db=10.0, n_total=10**6)
        with pytest.raises(ValueError, match="seed"):
            sample_observations(ch, DecoyConfig.reference(), seed=-1)

    def test_rejects_n_total_beyond_int64(self):
        cfg = DecoyConfig.reference()
        assert sample_observations(ChannelSpec.reference(10.0, n_total=2**63 - 1), cfg, seed=0)
        with pytest.raises(ValueError, match="n_total"):
            sample_observations(ChannelSpec.reference(10.0, n_total=2**63), cfg, seed=0)

    def test_mean_tags_match_the_model(self):
        # Each tag cell is marginally Binomial(n_total, q) with
        # q = sum_mu p_mu pmf_mu(m) table[m, class]; its mean over 200 seeds
        # must lie within 5 standard errors.
        ch = ChannelSpec.reference(loss_db=10.0, n_total=10**6)
        cfg = DecoyConfig.reference()
        runs = 200
        tags = [sample_observations(ch, cfg, seed=s, with_tags=True)[1] for s in range(runs)]
        weights = np.asarray(cfg.probabilities) @ cfg._photon_pmf[:, :4]
        q = weights[:, None] * _class_table(ch)[:4]
        for name, cells in (("x", q[:, 0] + q[:, 1]), ("x_err", q[:, 0]), ("k", q[:, 2])):
            mean = np.mean([getattr(t, name)[:4] for t in tags], axis=0)
            se = np.sqrt(ch.n_total * cells * (1 - cells) / runs)
            assert np.all(np.abs(mean - ch.n_total * cells) <= 5 * se), (name, mean, ch.n_total * cells)

    def test_tags_account_for_class_totals(self):
        ch = ChannelSpec.reference(loss_db=10.0, n_total=10**6)
        cfg = DecoyConfig.reference()
        obs, tags = sample_observations(ch, cfg, seed=11, with_tags=True)
        assert tags.x.sum() == pytest.approx(sum(obs.n_x))
        assert tags.x_err.sum() == pytest.approx(sum(n * e for n, e in zip(obs.n_x, obs.e_x)))
        assert tags.k.sum() == pytest.approx(sum(obs.n_k))


class TestPerConfigConstants:
    """What depends only on the DecoyConfig is computed once per config and
    kept on it; equal configs give equal results, and the config itself
    does not change."""

    ARGS = ((0.6, 0.2, 0.0), (0.5, 0.3, 0.2))
    CH = ChannelSpec.reference(loss_db=10.0, n_total=10**6)

    def test_photon_pmf_is_read_only(self):
        pmf = DecoyConfig(*self.ARGS)._photon_pmf
        with pytest.raises(ValueError, match="read-only"):
            pmf[0, 0] = 0.5

    def test_equal_configs_give_equal_results(self):
        a, b = DecoyConfig(*self.ARGS), DecoyConfig(*self.ARGS)
        assert a is not b
        assert np.array_equal(a._photon_pmf, b._photon_pmf)
        for seed in (0, 5):
            assert sample_observations(self.CH, a, seed=seed) == sample_observations(self.CH, b, seed=seed)

    def test_bounds_leave_the_config_unchanged(self):
        cfg, fresh = DecoyConfig(*self.ARGS), DecoyConfig(*self.ARGS)
        decoy_bounds(OutcomeCounts((1e6, 2e5, 1e4)), cfg, 1e-24)
        assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)
        assert dataclasses.asdict(cfg) == dataclasses.asdict(fresh)

    def test_warm_decisions_and_runs_evaluate_no_poisson_mass(self, monkeypatch):
        # A count, not a timing: once a config has been used, a decision and
        # a sampled run on it recompute none of its photon statistics.
        calls = []

        def counted(m, mu):
            calls.append((m, mu))
            return poisson(m, mu)

        poisson = decoy._poisson
        monkeypatch.setattr(decoy, "_poisson", counted)
        cfg = DecoyConfig(*self.ARGS)
        deltas = closed_form_deltas(DetectorSpec(0.7, 1e-6, 0.01, 0.01))
        budget = EpsilonBudget.equal(1e-12)
        obs, _ = sample_observations(self.CH, cfg, seed=1, with_tags=True)
        key_length_decoy(obs, cfg, deltas, budget)
        calls.clear()
        key_length_decoy(obs, cfg, deltas, budget)
        sample_observations(self.CH, cfg, seed=2, with_tags=True)
        assert calls == []
        # tau and intensity_given_photon still check m and evaluate the pmf.
        tau(1, cfg)
        intensity_given_photon(1, cfg)
        assert len(calls) == 6
        for f in (tau, intensity_given_photon):
            with pytest.raises(ValueError, match="^m must"):
                f(-1, cfg)


def test_channel_spec_validation():
    ch = ChannelSpec(transmissivity=0.5, misalignment_deg=0.0, detector=REF_DET, n_total=10, p_z_alice=0.7)
    assert (ch.p_x_alice, ch.p_x_bob) == (1.0 - 0.7, 0.5)


@st.composite
def decoy_configs(draw):
    """Random valid intensities mu1 > mu2 + mu3, mu2 > mu3 >= 0, mu1 <= 1."""
    mu1 = draw(st.floats(0.05, 1.0))
    mu2 = mu1 * draw(st.floats(0.01, 0.99))
    mu3 = min(mu2, mu1 - mu2) * draw(st.floats(0.0, 0.99))
    assume(mu1 > mu2 + mu3 and mu2 > mu3)
    return DecoyConfig((mu1, mu2, mu3), (1 / 3, 1 / 3, 1 / 3))


@settings(max_examples=200)
@given(
    loss_db=st.floats(0.0, 60.0),
    cfg=decoy_configs(),
    n_total=st.integers(10**6, 10**12),
    seed=st.integers(0, 2**32 - 1),
)
def test_decoy_sandwich_on_tagged_runs(loss_db, cfg, n_total, seed):
    # Lim et al., PRA 89, 022307 (2014): the three-intensity bounds contain
    # the true vacuum and one-photon counts of every class (budget 9 eps^2
    # at eps = 1e-12 predicts no miss).
    ch = ChannelSpec.reference(loss_db=loss_db, n_total=n_total)
    obs, tags = sample_observations(ch, cfg, seed=seed, with_tags=True)
    for counts, tag in ((obs.counts_x(), tags.x), (obs.counts_x_err(), tags.x_err), (obs.counts_k(), tags.k)):
        assert bound_vacuum_lower(counts, cfg, 1e-24) <= tag[0]
        assert bound_single_lower(counts, cfg, 1e-24) <= tag[1] <= bound_single_upper(counts, cfg, 1e-24)
