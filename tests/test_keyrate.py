"""Tests of the key-length formulas and epsilon accounting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bb84mm.channel_sim import ChannelSpec, _class_table, expected_observations
from bb84mm.decoy import DecoyConfig, Observations, OutcomeCounts, decoy_bounds
from bb84mm.detector_model import DeltaPair, DetectorSpec, closed_form_deltas
from bb84mm.keyrate import (
    EpsilonBudget,
    binary_entropy,
    key_length_decoy,
    lambda_ec_default,
)
from bb84mm.phase_error import PhaseErrorQuery, bound_mismatch

BUDGET = EpsilonBudget.equal(1e-12)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(1.0) == 1.0  # saturated branch

    def test_direct_value(self):
        x = 0.11
        expect = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
        assert expect == pytest.approx(0.4999160, abs=1e-6)  # oracle self-check
        assert binary_entropy(0.11) == pytest.approx(expect, rel=1e-12)

    def test_saturates_beyond_half(self):
        assert binary_entropy(0.7) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestLambdaEc:
    def test_zero_error(self):
        assert lambda_ec_default(10**6, 0.0) == 0.0

    def test_direct_value(self):
        expect = 1.16e6 * binary_entropy(0.02)
        assert expect == pytest.approx(164071, abs=50)  # oracle self-check
        assert lambda_ec_default(10**6, 0.02) == pytest.approx(expect, rel=1e-12)

    def test_unit_efficiency_saturated(self):
        assert lambda_ec_default(10**6, 0.5, f_ec=1.0) == 10**6

    def test_rejects_subunit_efficiency(self):
        with pytest.raises(ValueError, match="f_ec"):
            lambda_ec_default(10, 0.1, f_ec=0.9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1.2"])
    def test_rejects_non_finite_or_non_numeric_efficiency(self, bad):
        with pytest.raises(ValueError, match="f_ec"):
            lambda_ec_default(10, 0.1, f_ec=bad)


class TestEpsilonBudget:
    def test_reference_security_parameter(self):
        assert BUDGET.eps_at_decoy == pytest.approx(math.sqrt(12) * 1e-12, rel=1e-12)
        assert BUDGET.security_parameter(decoy=True) == pytest.approx(
            (2 * math.sqrt(12) + 2) * 1e-12, rel=1e-12
        )
        assert BUDGET.security_parameter(decoy=False) == pytest.approx(
            (2 * math.sqrt(3) + 2) * 1e-12, rel=1e-12
        )

    @pytest.mark.parametrize("name", ["eps_at_a", "eps_at_b", "eps_at_c", "eps_at_d"])
    def test_square_must_not_underflow(self, name):
        # 1e-161 squared is subnormal: 2 / eps_sq overflows in the deviations.
        for eps in (1e-200, 1e-161):
            with pytest.raises(ValueError, match=f"{name} squared underflows"):
                EpsilonBudget(**{name: eps})
        assert EpsilonBudget(**{name: 1.5e-154}).security_parameter() > 0
        # eps_pa and eps_ev enter only logarithms.
        assert EpsilonBudget(eps_pa=1e-200, eps_ev=1e-200).security_parameter() > 0


class TestKeyLengthDecoy:
    CFG = DecoyConfig.reference()

    def _obs(self, loss_db=5.0, n_total=10**12):
        return expected_observations(
            ChannelSpec.reference(loss_db=loss_db, n_total=n_total), self.CFG
        )

    def test_zero_observations(self):
        obs = Observations(n_x=(0, 0, 0), n_k=(0, 0, 0), e_x=(0, 0, 0), e_z=0.0)
        out = key_length_decoy(obs, self.CFG, DeltaPair.zero(), BUDGET)
        assert out.key_length == 0
        assert not out.feasible

    def test_reference_low_loss_positive(self):
        out = key_length_decoy(self._obs(), self.CFG, DeltaPair.zero(), BUDGET)
        assert out.feasible
        assert out.key_length > 0

    def test_reference_10db_golden(self):
        # Cross-module regression guard, frozen from the first verified run
        # (10 dB, n_total = 1e12, reference intensities).
        obs = self._obs(loss_db=10.0)
        zero = key_length_decoy(obs, self.CFG, DeltaPair.zero(), BUDGET)
        assert zero.key_length == 2245293015
        assert zero.phase_bound == pytest.approx(1.7106485068e-3, rel=1e-6)
        # Plain Python types at the boundary.
        assert [type(v) for v in dataclasses.astuple(zero)] == [int, float, float, bool]
        deltas = closed_form_deltas(DetectorSpec(0.7, 1e-6, 0.01, 0.01))
        one_pct = key_length_decoy(obs, self.CFG, deltas, BUDGET)
        assert one_pct.key_length == 1687039082
        assert one_pct.phase_bound == pytest.approx(4.2394253310e-2, rel=1e-6)

    @pytest.mark.parametrize(
        "budget, f_ec, cost",
        [
            (EpsilonBudget(eps_pa=1e-6), 1.16, 2 * math.log2(1e-12 / 1e-6)),
            (EpsilonBudget(eps_pa=1e-15), 1.16, 2 * math.log2(1e-12 / 1e-15)),
            (BUDGET, 1e308, math.inf),
            (EpsilonBudget(eps_pa=1e-320), 1.16, 2 * math.log2(1e-12 / 1e-320)),
            (EpsilonBudget(eps_ev=1e-320), 1.16, math.log2(1e-12 / 1e-320)),
        ],
        ids=["eps_pa-1e-6", "eps_pa-1e-15", "f_ec-1e308", "eps_pa-1e-320", "eps_ev-1e-320"],
    )
    def test_hash_and_ec_inputs_cost_their_bits(self, budget, f_ec, cost):
        # eps_pa and eps_ev enter only the hash penalties, so the key moves
        # by exactly their bits.  lambda_ec overflows to inf at f_ec = 1e308,
        # and 1 / (2 eps) at eps = 1e-320; an infinite cost leaves 0.
        obs = self._obs(loss_db=20.0)
        base = key_length_decoy(obs, self.CFG, DeltaPair.zero(), BUDGET).key_length
        out = key_length_decoy(obs, self.CFG, DeltaPair.zero(), budget, f_ec=f_ec)
        assert out.feasible
        assert abs(out.key_length - max(0.0, base - cost)) <= 1

    def test_f_ec_reaches_lambda_ec(self):
        obs = self._obs()
        default = key_length_decoy(obs, self.CFG, DeltaPair.zero(), BUDGET)
        costly = key_length_decoy(obs, self.CFG, DeltaPair.zero(), BUDGET, f_ec=1.5)
        assert costly.lambda_ec == lambda_ec_default(sum(obs.n_k), obs.e_z, 1.5)
        assert costly.key_length < default.key_length

    def test_non_decreasing_in_n_total(self):
        for loss_db in (0.0, 20.0, 40.0):
            lengths = [
                key_length_decoy(self._obs(loss_db, 10**k), self.CFG, DeltaPair.zero(), BUDGET).key_length
                for k in range(8, 17)
            ]
            assert lengths == sorted(lengths)
            assert lengths[-1] > 0

    def test_zero_dark_floor_gives_zero_key(self):
        with pytest.warns(UserWarning):
            deltas = closed_form_deltas(DetectorSpec(0.7, 1e-6, 0.0, 1.0))
        out = key_length_decoy(self._obs(), self.CFG, deltas, BUDGET)
        assert out.key_length == 0

    def test_key_bounded_by_single_photon_count(self):
        obs = self._obs()
        out = key_length_decoy(obs, self.CFG, DeltaPair.zero(), BUDGET)
        assert out.key_length <= decoy_bounds(obs.counts_k(), self.CFG, BUDGET.eps_at_d**2)[1]
        assert out.key_length <= sum(obs.n_k)

    def test_composition_identity(self):
        # The decision is the single-photon formula with the decoy bounds
        # plugged in by hand.
        obs = self._obs(loss_db=10.0)
        deltas = closed_form_deltas(DetectorSpec(0.7, 1e-6, 0.01, 0.01))
        eps_d_sq = BUDGET.eps_at_d**2
        b1l_x = decoy_bounds(obs.counts_x(), self.CFG, eps_d_sq)[1]
        b1u_err = decoy_bounds(obs.counts_x_err(), self.CFG, eps_d_sq)[2]
        b1l_k = decoy_bounds(obs.counts_k(), self.CFG, eps_d_sq)[1]
        manual = bound_mismatch(
            PhaseErrorQuery(
                e_obs=min(1.0, b1u_err / b1l_x),
                n_test=int(b1l_x),
                n_key=int(b1l_k),
                deltas=deltas,
                eps_a_sq=1e-24,
                eps_b_sq=1e-24,
                eps_c_sq=1e-24,
            )
        )
        lam = lambda_ec_default(sum(obs.n_k), obs.e_z)
        expect = math.floor(
            b1l_k * (1 - binary_entropy(manual.value))
            - lam
            - 2 * math.log2(1 / (2e-12))
            - math.log2(2 / 1e-12)
        )
        out = key_length_decoy(obs, self.CFG, deltas, BUDGET)
        assert out.phase_bound == manual.value
        assert out.lambda_ec == lam
        assert out.key_length == expect

    def test_empty_interval_forces_infeasible(self):
        # key counts whose clamped one-photon interval is empty (found by search)
        bad = (2149419.0, 4562823.0, 3858240.0)
        _, lo, hi = decoy_bounds(OutcomeCounts(bad), self.CFG, BUDGET.eps_at_d**2)
        assert lo > hi > 0.0
        obs = Observations(n_x=(1e6, 1e6, 1e5), n_k=bad, e_x=(0.01, 0.01, 0.5), e_z=0.01)
        out = key_length_decoy(obs, self.CFG, DeltaPair.zero(), BUDGET)
        assert not out.feasible
        assert out.key_length == 0
        assert out.phase_bound == 1.0

    def test_more_errors_weakly_raise_bound(self):
        obs = self._obs(loss_db=10.0)
        bumped = dataclasses.replace(
            obs, e_x=(obs.e_x[0], min(1.0, obs.e_x[1] * 1.5), obs.e_x[2])
        )
        base = key_length_decoy(obs, self.CFG, DeltaPair.zero(), BUDGET)
        more = key_length_decoy(bumped, self.CFG, DeltaPair.zero(), BUDGET)
        assert more.phase_bound >= base.phase_bound
        assert more.key_length <= base.key_length

    def test_monotone_in_mismatch(self):
        obs = self._obs()
        lengths = []
        for tol in (0.0, 0.005, 0.01, 0.02):
            deltas = closed_form_deltas(DetectorSpec(0.7, 1e-6, tol, tol))
            lengths.append(key_length_decoy(obs, self.CFG, deltas, BUDGET).key_length)
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))

    @settings(max_examples=60)
    @given(
        loss_db=st.floats(0.0, 50.0),
        e_z=st.floats(0.0, 0.5),
        e_z_bump=st.floats(0.0, 0.5),
        tol_eta=st.lists(st.floats(0.0, 0.05), min_size=2, max_size=2),
        tol_dc=st.lists(st.floats(0.0, 0.05), min_size=2, max_size=2),
    )
    def test_non_increasing_in_error_rate_and_tolerances(
        self, loss_db, e_z, e_z_bump, tol_eta, tol_dc
    ):
        obs = dataclasses.replace(self._obs(loss_db=loss_db), e_z=e_z)
        (eta_lo, eta_hi), (dc_lo, dc_hi) = sorted(tol_eta), sorted(tol_dc)

        def length(o=obs, de=eta_lo, dd=dc_lo):
            deltas = closed_form_deltas(DetectorSpec(0.7, 1e-6, de, dd))
            return key_length_decoy(o, self.CFG, deltas, BUDGET).key_length

        base = length()
        assert length(o=dataclasses.replace(obs, e_z=min(1.0, e_z + e_z_bump))) <= base
        assert length(de=eta_hi) <= base
        assert length(dd=dc_hi) <= base

    @settings(max_examples=200)
    @given(
        loss_db=st.floats(0.0, 50.0),
        theta=st.floats(0.0, 10.0),
        eta_det=st.floats(0.05, 0.9),
        d_det=st.just(0.0) | st.floats(-9.0, -3.0).map(lambda x: 10.0**x),
        p_z=st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9), st.floats(0.01, 0.5)),
        mus=st.tuples(st.floats(0.0, 0.01), st.floats(0.01, 0.3), st.floats(0.2, 1.0)),
        weights=st.tuples(*[st.floats(0.01, 1.0)] * 3),
        tol=st.tuples(st.floats(0.0, 0.05), st.floats(0.0, 0.05)),
        log_n=st.floats(8.0, 24.0),
        log_eps=st.tuples(*[st.floats(-20.0, -3.0)] * 6),
        f_ec=st.floats(1.0, 1.5),
    )
    def test_never_exceeds_the_true_single_photon_key(
        self, loss_db, theta, eta_det, d_det, p_z, mus, weights, tol, log_n, log_eps, f_ec
    ):
        # The whole pipeline on an expected record never promises more than
        # the honest channel's true single-photon key, n1_key (1 - h(e1))
        # - lambda_ec - hash penalties, with n1_key and e1 read from the
        # fixed-m class table, whatever the channel, decoys and tolerances.
        mu3, gap2, gap1 = mus
        cfg = DecoyConfig(
            (2 * mu3 + gap2 + gap1, mu3 + gap2, mu3), tuple(w / sum(weights) for w in weights)
        )
        ch = ChannelSpec(
            10.0 ** (-loss_db / 10.0), theta, DetectorSpec(eta_det, d_det), int(10.0**log_n), *p_z
        )
        budget = EpsilonBudget(*(10.0**e for e in log_eps))
        deltas = closed_form_deltas(DetectorSpec(eta_det, d_det, *tol))
        out = key_length_decoy(expected_observations(ch, cfg), cfg, deltas, budget, f_ec)

        single = ch.n_total * float(np.dot(cfg.probabilities, cfg._photon_pmf[:, 1])) * _class_table(ch)[1]
        x_err, x_ok, n1_key = single[:3]
        hash_penalties = 2 * math.log2(1 / (2 * budget.eps_pa)) + math.log2(2 / budget.eps_ev)
        ceiling = n1_key * (1 - binary_entropy(x_err / (x_err + x_ok))) - out.lambda_ec - hash_penalties
        assert out.key_length <= max(0.0, ceiling)


class TestKeyLengthSinglePhoton:
    """The single-photon phase-error term of key_length_decoy."""

    def test_vacuous_phase_bound_kills_key(self):
        cfg = DecoyConfig.reference()
        obs = expected_observations(ChannelSpec.reference(loss_db=10.0, n_total=10**12), cfg)
        # Half the X rounds in error on every intensity: the bound is vacuous.
        vacuous = dataclasses.replace(obs, e_x=(0.5, 0.5, 0.5))
        out = key_length_decoy(vacuous, cfg, DeltaPair.zero(), BUDGET)
        assert out.key_length == 0
        assert out.phase_bound >= 0.5

