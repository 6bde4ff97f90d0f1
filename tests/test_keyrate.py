"""Tests of the key-length formulas and epsilon accounting."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bb84mm.channel_sim import ChannelSpec, expected_observations
from bb84mm.decoy import DecoyConfig, Observations, OutcomeCounts, decoy_bounds
from bb84mm.detector_model import DeltaPair, DetectorSpec, closed_form_deltas
from bb84mm.keyrate import (
    EpsilonBudget,
    binary_entropy,
    key_length_decoy,
    key_length_single_photon,
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

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonBudget(eps_pa=0.0)

    @pytest.mark.parametrize("name", ["eps_at_a", "eps_at_b", "eps_at_c", "eps_at_d"])
    def test_square_must_not_underflow(self, name):
        with pytest.raises(ValueError, match=f"{name} squared underflows"):
            EpsilonBudget(**{name: 1e-200})
        # eps_pa and eps_ev enter only logarithms.
        assert EpsilonBudget(eps_pa=1e-200, eps_ev=1e-200).security_parameter() > 0


class TestKeyLengthSinglePhoton:
    def test_vacuous_phase_bound_kills_key(self):
        out = key_length_single_photon(
            0.5, 10**6, 10**6, 0.01, DeltaPair.zero(), BUDGET
        )
        assert out.key_length == 0
        assert out.phase_bound >= 0.5

    def test_reference_golden(self):
        budget = EpsilonBudget.equal(1e-12)
        out = key_length_single_photon(
            0.01, 10**6, 10**6, 0.01, DeltaPair.zero(), budget
        )
        assert 0 < out.key_length < 10**6
        # Frozen from the first verified run.
        assert out.key_length == 761849
        assert out.phase_bound == pytest.approx(2.0513048796e-2, rel=1e-6)

    def test_manual_formula_identity(self):
        e, n, ez = 0.01, 10**6, 0.01
        b = bound_mismatch(
            PhaseErrorQuery(
                e_obs=e,
                n_test=n,
                n_key=n,
                deltas=DeltaPair.zero(),
                eps_a_sq=1e-24,
                eps_b_sq=1e-24,
                eps_c_sq=1e-24,
            )
        )
        expect = math.floor(
            n * (1 - binary_entropy(b.value))
            - lambda_ec_default(n, ez)
            - 2 * math.log2(1 / (2e-12))
            - math.log2(2 / 1e-12)
        )
        out = key_length_single_photon(e, n, n, ez, DeltaPair.zero(), BUDGET)
        assert out.key_length == expect

    def test_monotone_in_eps_pa(self):
        loose = EpsilonBudget(1e-12, 1e-12, 1e-12, 1e-12, 1e-12, 1e-6)
        tight = EpsilonBudget(1e-12, 1e-12, 1e-12, 1e-12, 1e-12, 1e-15)
        args = (0.01, 10**6, 10**6, 0.01, DeltaPair.zero())
        assert (
            key_length_single_photon(*args, loose).key_length
            >= key_length_single_photon(*args, tight).key_length
        )

    @pytest.mark.parametrize(
        "budget, f_ec, cost",
        [
            (BUDGET, 1e308, math.inf),
            (EpsilonBudget(eps_pa=1e-320), 1.16, 2 * math.log2(1e-12 / 1e-320)),
            (EpsilonBudget(eps_ev=1e-320), 1.16, math.log2(1e-12 / 1e-320)),
        ],
        ids=["f_ec-1e308", "eps_pa-1e-320", "eps_ev-1e-320"],
    )
    def test_extreme_in_range_inputs_decide(self, budget, f_ec, cost):
        # lambda_ec overflows to inf at f_ec = 1e308, and 1 / (2 eps) at
        # eps = 1e-320; each costs its bits, and an infinite cost leaves 0.
        args = (0.01, 1000, 10**6, 0.02, DeltaPair.zero())
        base = key_length_single_photon(*args, BUDGET).key_length
        out = key_length_single_photon(*args, budget, f_ec=f_ec)
        assert out.feasible
        assert abs(out.key_length - max(0.0, base - cost)) <= 1

    def test_zero_counts(self):
        out = key_length_single_photon(0.0, 0, 10**6, 0.0, DeltaPair.zero(), BUDGET)
        assert out.key_length == 0
        assert not out.feasible

    def test_length_bounded_by_n_key(self):
        out = key_length_single_photon(0.0, 10**6, 10**6, 0.0, DeltaPair.zero(), BUDGET)
        assert 0 < out.key_length <= 10**6

    def test_monotone_in_every_scalar_argument(self):
        base = key_length_single_photon(
            0.02, 10**6, 10**6, 0.02, DeltaPair(0.004, 0.002), BUDGET
        ).key_length

        def length(e_obs=0.02, n_test=10**6, n_key=10**6, e_z=0.02, d1=0.004, d2=0.002):
            return key_length_single_photon(
                e_obs, n_test, n_key, e_z, DeltaPair(d1, d2), BUDGET
            ).key_length

        assert length(n_test=2 * 10**6) >= base
        assert length(n_key=2 * 10**6) >= base
        assert length(e_obs=0.03) <= base
        assert length(e_z=0.03) <= base
        assert length(d1=0.008) <= base
        assert length(d2=0.004) <= base

    def test_f_ec_reaches_lambda_ec(self):
        args = (0.01, 10**6, 10**6, 0.01, DeltaPair.zero(), BUDGET)
        default = key_length_single_photon(*args)
        assert default.lambda_ec == lambda_ec_default(10**6, 0.01)
        costly = key_length_single_photon(*args, f_ec=1.5)
        assert costly.lambda_ec == lambda_ec_default(10**6, 0.01, 1.5)
        assert costly.key_length < default.key_length
        obs = expected_observations(ChannelSpec.reference(loss_db=5.0), DecoyConfig.reference())
        decision = key_length_decoy(obs, DecoyConfig.reference(), DeltaPair.zero(), BUDGET, f_ec=1.5)
        assert decision.lambda_ec == lambda_ec_default(sum(obs.n_k), obs.e_z, 1.5)


class TestKeyLengthDecoy:
    CFG = DecoyConfig.reference()

    def _obs(self, loss_db=5.0):
        return expected_observations(
            ChannelSpec.reference(loss_db=loss_db, n_total=10**12), self.CFG
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


_VALID = {
    DetectorSpec: {"eta_det": 0.7, "d_det": 1e-6},
    DecoyConfig: {"intensities": (0.9, 0.1, 0.0), "probabilities": (1 / 3, 1 / 3, 1 / 3)},
    ChannelSpec: {
        "transmissivity": 0.1,
        "misalignment_deg": 2.0,
        "detector": DetectorSpec(0.7, 1e-6),
        "n_total": 10**9,
    },
    EpsilonBudget: {},
}


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (DetectorSpec, "eta_det", math.nan),
        (DetectorSpec, "d_det", math.inf),
        (DetectorSpec, "delta_eta", math.nan),
        (DetectorSpec, "delta_dc", -math.inf),
        (DecoyConfig, "intensities", (math.inf, 0.1, 0.0)),
        (DecoyConfig, "intensities", (0.9, math.nan, 0.0)),
        (DecoyConfig, "probabilities", (math.nan, 0.5, 0.5)),
        (ChannelSpec, "transmissivity", math.nan),
        (ChannelSpec, "misalignment_deg", math.nan),
        (ChannelSpec, "misalignment_deg", math.inf),
        (ChannelSpec, "n_total", math.inf),
        (ChannelSpec, "n_total", math.nan),
        (ChannelSpec, "p_z_test", math.nan),
        (EpsilonBudget, "eps_pa", math.nan),
        (EpsilonBudget, "eps_at_d", math.inf),
    ],
)
def test_config_dataclasses_reject_non_finite_fields(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{**_VALID[cls], field: value})
