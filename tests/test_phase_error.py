"""Tests of the phase-error-rate bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bb84mm.channel_sim import ChannelSpec, expected_observations
from bb84mm.decoy import DecoyConfig, Observations, decoy_bounds
from bb84mm.detector_model import DeltaPair
from bb84mm.keyrate import EpsilonBudget, key_length_decoy
from bb84mm.phase_error import PhaseErrorQuery, bound_mismatch, bound_perfect
from bb84mm.stat_bounds import gamma_bin, gamma_serf


def q(e_obs, n_test, n_key, d1, d2, eps=1e-24):
    return PhaseErrorQuery(
        e_obs=e_obs,
        n_test=n_test,
        n_key=n_key,
        deltas=DeltaPair(d1, d2),
        eps_a_sq=eps,
        eps_b_sq=eps,
        eps_c_sq=eps,
    )


class TestBoundPerfect:
    def test_large_sample_value(self):
        got = bound_perfect(0.0, 10**8, 10**8, 1e-24)
        expect = gamma_serf(10**8, 10**8, 1e-24)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(1.05e-3, rel=0.01)

    def test_capped_at_one(self):
        assert bound_perfect(0.5, 10, 10, 1e-24) == 1.0
        assert bound_perfect(0.99, 10**6, 10**6, 1e-12) <= 1.0

    def test_degenerate_counts(self):
        assert bound_perfect(0.0, 0, 100, 1e-12) == 1.0
        assert bound_perfect(0.0, 100, 0, 1e-12) == 1.0


class TestBoundMismatch:
    def test_reduces_to_perfect_at_zero_deltas(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            e = float(rng.uniform(0, 0.2))
            n = int(rng.integers(10, 10**7))
            b = bound_mismatch(q(e, n, n, 0.0, 0.0))
            assert not b.vacuous
            assert b.value == pytest.approx(bound_perfect(e, n, n, 1e-24), abs=1e-12)

    def test_frozen_composition_identity(self):
        # Componentwise assembly through the stat_bounds primitives.
        e, n, d1, d2, eps = 0.02, 10**6, 0.004, 0.002, 1e-24
        numer = e + gamma_serf(n, n, eps) + d1 + gamma_bin(n, d1, eps)
        denom = 1.0 - d2 - gamma_bin(n, d2, eps)
        expect = numer / denom
        got = bound_mismatch(q(e, n, n, d1, d2))
        assert got.value == pytest.approx(expect, rel=1e-12)
        assert got.value >= 0.024

    def test_vacuous_when_denominator_collapses(self):
        # At n = 100 the discard deviation pushes delta2 = 0.999 past 1.
        b = bound_mismatch(q(0.01, 100, 100, 0.0, 0.999))
        assert b.value == 1.0
        assert b.vacuous
        # At n = 1e6 the denominator survives (7e-4) but the ratio still
        # caps at the trivial bound.
        b = bound_mismatch(q(0.01, 10**6, 10**6, 0.0, 0.999))
        assert b.value == 1.0
        assert not b.vacuous

    def test_monotonicity_grid(self):
        base = bound_mismatch(q(0.02, 10**5, 10**5, 0.004, 0.002)).value
        assert bound_mismatch(q(0.03, 10**5, 10**5, 0.004, 0.002)).value >= base
        assert bound_mismatch(q(0.02, 10**5, 10**5, 0.008, 0.002)).value >= base
        assert bound_mismatch(q(0.02, 10**5, 10**5, 0.004, 0.004)).value >= base
        assert bound_mismatch(q(0.02, 4 * 10**5, 10**5, 0.004, 0.002)).value <= base
        assert bound_mismatch(q(0.02, 10**5, 4 * 10**5, 0.004, 0.002)).value <= base

    def test_large_delta1_saturates(self):
        b = bound_mismatch(q(0.0, 10**6, 10**6, 3.7, 0.0))
        assert b.value == 1.0
        assert not b.vacuous


    @settings(max_examples=150)
    @given(
        e_obs=st.floats(0.0, 1.0),
        n_test=st.integers(1, 10**12),
        n_key=st.integers(1, 10**12),
        d1=st.floats(0.0, 2.0),
        d2=st.floats(0.0, 1.0),
        eps_sq=st.floats(1e-30, 0.5),
        bump=st.floats(0.0, 1.0),
    )
    def test_dominates_perfect_and_monotone_in_every_input(
        self, e_obs, n_test, n_key, d1, d2, eps_sq, bump
    ):
        def value(e=e_obs, a=d1, b=d2):
            return bound_mismatch(q(e, n_test, n_key, a, b, eps_sq)).value

        base = value()
        assert base >= bound_perfect(e_obs, n_test, n_key, eps_sq)
        assert value(e=min(1.0, e_obs + bump)) >= base
        assert value(a=d1 + bump) >= base
        assert value(b=min(1.0, d2 + bump)) >= base


class TestBoundDecoyComposed:
    """The phase bound composed from decoy-state one-photon bounds, as
    reported by ``key_length_decoy``."""

    CFG = DecoyConfig.reference()
    BUDGET = EpsilonBudget.equal(1e-12)

    def _obs(self, loss_db=10.0, n_total=10**12):
        return expected_observations(
            ChannelSpec.reference(loss_db=loss_db, n_total=n_total), self.CFG
        )

    def test_zero_observations_infeasible(self):
        obs = Observations(n_x=(0, 0, 0), n_k=(0, 0, 0), e_x=(0, 0, 0), e_z=0.0)
        out = key_length_decoy(obs, self.CFG, DeltaPair.zero(), self.BUDGET)
        assert not out.feasible
        assert out.phase_bound == 1.0

    def test_reference_run_feasible_golden(self):
        obs = self._obs()
        out = key_length_decoy(obs, self.CFG, DeltaPair.zero(), self.BUDGET)
        eps_d_sq = self.BUDGET.eps_at_d**2
        single_key_lower = decoy_bounds(obs.counts_k(), self.CFG, eps_d_sq)[1]
        single_error_rate_upper = (
            decoy_bounds(obs.counts_x_err(), self.CFG, eps_d_sq)[2]
            / decoy_bounds(obs.counts_x(), self.CFG, eps_d_sq)[1]
        )
        assert out.feasible
        assert 0.0 < single_error_rate_upper < 0.5
        assert single_key_lower > 0.0
        # Frozen from the first verified run of this pipeline.
        assert out.phase_bound == pytest.approx(1.7106485068e-3, rel=1e-6)
        assert single_key_lower == pytest.approx(2.3757988566e9, rel=1e-6)
        assert single_error_rate_upper == pytest.approx(1.4976771795e-3, rel=1e-6)
