"""Tests of the Monte Carlo lemma verifiers.

The routine suite runs at reduced trial counts; the full acceptance
configuration (n = 2000, 1e5 trials) lives in test_acceptance.py.
"""

import itertools
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bb84mm import mc_verify
from bb84mm.decoy import DecoyConfig
from bb84mm.mc_verify import (
    TrialConfig,
    _chain_visits,
    _intensity_counts,
    _serfling_counts,
    _tails,
    _tails_at,
    poisson_binomial_pmf,
    verify_decoy_hoeffding,
    verify_freq_transfer,
    verify_serfling,
    verify_small_povm,
)

FAST = dict(n=500, trials=20_000)

# Goodness-of-fit floor for samplers against exact enumeration, at fixed
# seeds; a correct sampler falls below it with probability 1e-7.
GOF_ALPHA = 1e-7


def _enumerated_pmf(p):
    """Distribution of the success count by summing over all outcomes."""
    out = np.zeros(len(p) + 1)
    for hits in itertools.product((0, 1), repeat=len(p)):
        out[sum(hits)] += math.prod(pi if h else 1.0 - pi for pi, h in zip(p, hits))
    return out


def _recursive_pmf(p):
    """Poisson-binomial pmf by the O(n^2) recursion, one round at a time;
    each step is a convex combination, so nothing cancels."""
    pmf = np.zeros(len(p) + 1)
    pmf[0] = 1.0
    for i, pi in enumerate(p):
        pmf[1 : i + 2] = pmf[1 : i + 2] * (1.0 - pi) + pmf[: i + 1] * pi
        pmf[0] *= 1.0 - pi
    return pmf


# Round counts at and either side of every power of two the pmf's product
# tree pads to.
_POW2_SIZES = sorted({2**k + d for k in range(12) for d in (-1, 0, 1)})


def _gof_pvalue(samples, exact):
    """Chi-square p-value of sampled rows against {row: probability}; a row
    that the exact distribution excludes fails outright."""
    observed = Counter(map(tuple, np.asarray(samples).reshape(len(samples), -1).tolist()))
    assert set(observed) <= set(exact), set(observed) - set(exact)
    f_obs = np.array([observed[k] for k in exact], float)
    f_exp = np.array(list(exact.values()))
    return stats.chisquare(f_obs, f_exp * f_obs.sum() / f_exp.sum()).pvalue


def _chain_sequences(n, levels, stay):
    """Every level sequence of the sticky chain with its probability."""
    for seq in itertools.product(range(levels), repeat=n):
        prob = 1.0 / levels
        for a, b in zip(seq, seq[1:]):
            prob *= (1.0 - stay) / levels + (stay if a == b else 0.0)
        yield seq, prob


class TestKernels:
    """The exact count samplers behind the verifiers."""

    def test_serfling_counts_consistent(self):
        n_t, n_k, s_t, s_k = _serfling_counts(100, 50, 0.4, 0.4, 500, np.random.default_rng(1))
        assert np.all(n_t + n_k <= 100)
        assert np.all(s_t <= n_t)
        assert np.all(s_k <= n_k)
        assert np.all(s_t + s_k <= 50)
        # assignment probabilities roughly honored
        assert abs(n_t.mean() - 40) < 2.0

    def test_serfling_deterministic(self):
        a = _serfling_counts(64, 32, 0.5, 0.5, 200, np.random.default_rng(9))
        b = _serfling_counts(64, 32, 0.5, 0.5, 200, np.random.default_rng(9))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_serfling_counts_match_enumeration(self):
        # bits 1, 1, 0; each position test / key / neither independently
        bits, probs = (1, 1, 0), (0.3, 0.5, 0.2)
        exact = Counter()
        for roles in itertools.product(range(3), repeat=3):
            ones = [sum(b for b, r in zip(bits, roles) if r == role) for role in (0, 1)]
            exact[(roles.count(0), roles.count(1), *ones)] += math.prod(probs[r] for r in roles)
        draws = np.stack(_serfling_counts(3, 2, 0.3, 0.5, 100_000, np.random.default_rng(11)), axis=1)
        assert _gof_pvalue(draws, exact) >= GOF_ALPHA

    @settings(max_examples=60)
    @given(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=300))
    def test_tails_are_upper_sums(self, p):
        pmf = poisson_binomial_pmf(p)
        tails = _tails(pmf)
        assert tails.shape == (len(p) + 2,) and tails[-1] == 0.0
        for k in range(len(p) + 1):
            assert math.isclose(tails[k], pmf[k:].sum(), rel_tol=1e-12, abs_tol=0.0)

    def test_histogram_matches_pmf(self):
        pmf = poisson_binomial_pmf([0.1, 0.5, 0.9, 0.3])
        exact, freq = _tails_at(pmf, 100_000, np.random.default_rng(4), np.arange(6))
        assert np.array_equal(exact, _tails(pmf))
        hist = np.rint(-np.diff(freq) * 100_000)
        assert stats.chisquare(hist, pmf * 100_000).pvalue >= GOF_ALPHA

    def test_thresholds_outside_the_counts_clamp(self):
        pmf = poisson_binomial_pmf(np.full(50, 0.3))
        exact, freq = _tails_at(pmf, 1000, np.random.default_rng(5), [-3, 0, 51, 60])
        total = _tails(pmf)[0]
        assert exact.tolist() == [total, total, 0.0, 0.0]
        assert freq.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_pmf_matches_binomial_at_n_2000(self):
        k = np.arange(2001)
        for p in (0.01, 0.1, 0.5):
            pmf = poisson_binomial_pmf(np.full(2000, p))
            assert np.max(np.abs(pmf - stats.binom.pmf(k, 2000, p))) <= 1e-12

    @pytest.mark.parametrize("n", [1030, 2000])
    def test_pmf_matches_exact_fair_coins(self, n):
        # The tree's power-of-two scaling must not move a normal entry: each
        # stays within 1e-13 of the correctly rounded comb(n, k) / 2**n.
        pmf = poisson_binomial_pmf(np.full(n, 0.5))
        ref = np.array([math.comb(n, k) / 2**n for k in range(n + 1)])
        normal = ref >= sys.float_info.min
        assert np.all(np.abs(pmf[normal] - ref[normal]) <= 1e-13 * ref[normal])

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(st.integers(0, 4096), st.sampled_from(_POW2_SIZES + [4095, 4096])),
        st.sampled_from(["zeros", "ones", "mixed"]),
        st.integers(0, 2**32 - 1),
    )
    def test_pmf_never_overflows(self, n, kind, seed):
        # Scaled products and their sums stay below 2**1000, so no entry
        # overflows even where every coefficient sits at 1.
        rng = np.random.default_rng(seed)
        if kind == "mixed":
            p = rng.choice([0.0, 1.0, rng.uniform()], n)
        else:
            p = np.full(n, 1.0 if kind == "ones" else 0.0)
        pmf = poisson_binomial_pmf(p)
        assert np.all(np.isfinite(pmf))
        assert math.isclose(pmf.sum(), 1.0, rel_tol=0.0, abs_tol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=10))
    def test_pmf_properties(self, p):
        pmf = poisson_binomial_pmf(p)
        assert pmf.shape == (len(p) + 1,)
        assert np.all(pmf >= 0.0)
        assert math.isclose(pmf.sum(), 1.0, abs_tol=1e-12)
        assert math.isclose(pmf @ np.arange(len(p) + 1), sum(p), abs_tol=1e-12)
        assert np.allclose(pmf, _enumerated_pmf(p), rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "p, index", [([1.5], 0), ([math.nan, 0.2], 0), ([0.2, -0.1], 1), ([0.5, math.inf], 1)]
    )
    def test_pmf_rejects_an_entry_outside_0_1(self, p, index):
        with pytest.raises(ValueError, match=rf"^p\[{index}\] must be a finite number in \[0, 1\]"):
            poisson_binomial_pmf(p)

    @settings(max_examples=40)
    @given(
        st.one_of(st.integers(0, 3000), st.sampled_from(_POW2_SIZES)),
        st.sampled_from([1e-3, 0.01, 0.2, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_pmf_matches_recursion(self, n, p_max, seed):
        p = np.random.default_rng(seed).uniform(0.0, p_max, n)
        tree, ref = poisson_binomial_pmf(p), _recursive_pmf(p)
        assert tree.shape == ref.shape == (n + 1,)
        big = ref > 1e-280
        assert np.all((tree > 1e-280) == big)
        assert np.allclose(tree[big], ref[big], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "n, levels, stay", [(1, 3, 0.4), (5, 3, 0.0), (5, 3, 1.0), (6, 3, 0.5), (6, 4, 0.2), (7, 2, 0.95)]
    )
    def test_chain_visits_match_enumeration(self, n, levels, stay):
        exact = Counter()
        for seq, prob in _chain_sequences(n, levels, stay):
            if prob > 0.0:
                exact[tuple(seq.count(m) for m in range(levels))] += prob
        visits = _chain_visits(n, 100_000, levels, stay, -1, np.random.default_rng(14))
        assert _gof_pvalue(visits, exact) >= GOF_ALPHA

    def test_chain_visit_moments_at_scale(self):
        n, levels, stay, trials = 2000, 3, 0.9, 20_000
        x = _chain_visits(n, trials, levels, stay, -1, np.random.default_rng(15))[:, 0].astype(float)
        # Var of a stationary chain's visits to one level: the covariance of
        # rounds k apart is p(1 - p) stay^k.
        p = 1.0 / levels
        k = np.arange(1, n)
        var = p * (1.0 - p) * (n + 2.0 * np.sum((n - k) * stay**k))
        mean, s2 = x.mean(), x.var(ddof=1)
        m4 = np.mean((x - mean) ** 4)
        assert abs(mean - n * p) <= 5.0 * math.sqrt(var / trials)
        assert abs(s2 - var) <= 5.0 * math.sqrt((m4 - s2**2) / trials)

    def test_chain_never_leaves_its_level_at_stay_one(self):
        assert np.all(_chain_visits(50, 1000, 3, 1.0, -1, np.random.default_rng(13)).max(axis=1) == 50)

    def test_chain_and_intensity_counts_match_enumeration(self):
        # every level sequence and intensity sequence of 4 rounds, 2 levels
        cond = np.array([[0.2, 0.5, 0.3], [0.6, 0.3, 0.1]])
        joint, visits_only = Counter(), Counter()
        for seq, prob in _chain_sequences(4, 2, 0.7):
            visits_only[seq.count(0), seq.count(1)] += prob
            for ks in itertools.product(range(3), repeat=4):
                p = prob * math.prod(cond[m, k] for m, k in zip(seq, ks))
                joint[seq.count(0), seq.count(1), ks.count(0), ks.count(1), ks.count(2)] += p
        rng = np.random.default_rng(12)
        visits = _chain_visits(4, 200_000, 2, 0.7, -1, rng)
        assert _gof_pvalue(visits, visits_only) >= GOF_ALPHA
        draws = np.hstack([visits, _intensity_counts(visits, cond, rng)])
        assert _gof_pvalue(draws, joint) >= GOF_ALPHA

    def test_intensity_assignment_totals(self):
        cond = np.array([[0.2, 0.5, 0.3], [0.6, 0.3, 0.1]])
        rng = np.random.default_rng(7)
        counts_m = _chain_visits(150, 800, 2, 0.8, -1, rng)
        counts_k = _intensity_counts(counts_m, cond, rng)
        assert np.all(counts_k.sum(axis=1) == 150)
        assert np.all(counts_m.sum(axis=1) == 150)

    def test_constant_photon_mode(self):
        cond = np.array([[0.2, 0.5, 0.3], [0.6, 0.3, 0.1]])
        rng = np.random.default_rng(7)
        counts_m = _chain_visits(100, 500, 2, 0.8, 1, rng)
        counts_k = _intensity_counts(counts_m, cond, rng)
        assert np.all(counts_m[:, 1] == 100)
        assert np.all(counts_m[:, 0] == 0)
        # IID categorical: mean per intensity matches the conditional row
        assert abs(counts_k[:, 0].mean() - 60.0) < 1.5


class TestSerflingVerifier:
    def test_passes_at_reduced_trials(self):
        rep = verify_serfling(TrialConfig(**FAST))
        assert rep.passed
        assert rep.details["strata_tested"] >= 1

    def test_all_zero_string_never_violates(self):
        rep = verify_serfling(TrialConfig(**FAST, ones_density=0.0))
        assert rep.empirical == 0.0
        assert rep.passed

    def test_gamma_above_one_never_violates(self):
        rep = verify_serfling(TrialConfig(**FAST, gamma=1.0))
        assert rep.empirical == 0.0
        assert rep.passed

    def test_judged_when_no_stratum_is_tested(self, monkeypatch):
        # At 1000 trials no (n_test, n_key) stratum reaches MIN_STRATUM, so
        # only the pooled frequency can catch a run where every trial
        # violates; a run with no valid trial has nothing to pass on.
        def all_violate(*args):
            n_t, n_k, s_t, _ = _serfling_counts(*args)
            return n_t, n_k, np.zeros_like(s_t), n_k

        monkeypatch.setattr(mc_verify, "_serfling_counts", all_violate)
        rep = verify_serfling(TrialConfig(trials=1000))
        assert rep.details["strata_tested"] == 0
        assert rep.empirical == 1.0 > rep.bound
        assert not rep.passed
        monkeypatch.undo()
        assert verify_serfling(TrialConfig(trials=1000)).passed
        assert not verify_serfling(TrialConfig(trials=1000, p_test=0.0)).passed


class TestSmallPovmVerifier:
    def test_extremal_profile_tight(self):
        rep = verify_small_povm(TrialConfig(n=2000, trials=20_000))
        assert rep.passed
        assert rep.details["tight_two_sided"]

    def test_zero_profile_no_clicks(self):
        rep = verify_small_povm(TrialConfig(**FAST, profile="zero"))
        assert rep.empirical == 0.0
        assert rep.passed

    def test_heterogeneous_profile_dominated(self):
        rep = verify_small_povm(TrialConfig(n=2000, trials=20_000, profile="heterogeneous"))
        assert rep.passed
        assert rep.empirical <= rep.bound + 3 * rep.sigma

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            verify_small_povm(TrialConfig(**FAST, profile="bogus"))

    def test_exact_tail_of_extremal_profile_is_the_bound(self):
        rep = verify_small_povm(TrialConfig(n=2000, trials=1000))
        assert rep.details["exact"] == pytest.approx(rep.bound, rel=1e-12, abs=0)

    def test_pass_requires_exact_inequality(self, monkeypatch):
        # A bound just under the exact tail is within the 3-sigma Monte Carlo
        # slack but below the exact probability, so the report must fail.
        real = mc_verify.binomial_tail
        monkeypatch.setattr(mc_verify, "binomial_tail", lambda q: real(q) * (1.0 - 1e-6))
        rep = verify_small_povm(TrialConfig(n=2000, trials=20_000))
        assert rep.empirical <= rep.bound + 3.0 * rep.sigma
        assert not rep.passed


class TestFreqTransferVerifier:
    def test_passes_on_grid(self):
        rep = verify_freq_transfer(TrialConfig(n=1000, trials=20_000))
        assert rep.passed
        assert len(rep.details["grid"]) == 3

    def test_identical_profiles_still_hold(self):
        rep = verify_freq_transfer(TrialConfig(n=1000, trials=20_000, delta=0.0, c=0.02))
        assert rep.passed

    def test_overshooting_deviation_empties_left_side(self):
        rep = verify_freq_transfer(TrialConfig(n=1000, trials=20_000, c=1.0))
        assert rep.passed
        assert all(row["left"] == 0.0 for row in rep.details["grid"])
        assert all(row["exact_left"] == 0.0 for row in rep.details["grid"])

    def test_exact_sides_bracket_frequencies(self):
        cfg = TrialConfig(n=1000, trials=20_000)
        rep = verify_freq_transfer(cfg)
        tail = rep.details["tail_term"]
        for row in rep.details["grid"]:
            assert row["exact_left"] <= row["exact_right"]
            for freq, exact in ((row["left"], row["exact_left"]), (row["right"] - tail, row["exact_right"] - tail)):
                assert abs(freq - exact) <= 6.0 * math.sqrt(exact * (1.0 - exact) / cfg.trials) + 1e-12


class TestDecoyHoeffdingVerifier:
    def test_markov_sequence_passes(self):
        rep = verify_decoy_hoeffding(TrialConfig(n=1000, trials=20_000))
        assert rep.passed
        assert rep.details["deviation"] == pytest.approx(
            math.sqrt(500 * math.log(2 / 1e-4)), rel=1e-12
        )

    def test_constant_photon_number_reduces_to_iid(self):
        rep = verify_decoy_hoeffding(TrialConfig(n=1000, trials=20_000, constant_photons=1))
        assert rep.passed

    def test_custom_decoy_config(self):
        cfg = DecoyConfig((0.8, 0.2, 0.05), (0.5, 0.3, 0.2))
        rep = verify_decoy_hoeffding(TrialConfig(n=500, trials=10_000), cfg)
        assert rep.passed


class TestConfigValidation:
    def test_overfull_assignment(self):
        with pytest.raises(ValueError):
            TrialConfig(p_test=0.7, p_key=0.7)

    # Cross-field and own rules; each field's range is a row of the record
    # table in test_stat_bounds.py.
    @pytest.mark.parametrize("field, value", [("constant_photons", 3), ("profile", "bogus")])
    def test_rejects_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must"):
            TrialConfig(**{field: value})

    def test_boundary_values_accepted(self):
        TrialConfig(markov_stay=1.0, p_test=0.0, p_key=1.0, eps_sq=1.0, gamma=0.0, constant_photons=2)


def test_report_serialization():
    payload = verify_small_povm(TrialConfig(**FAST)).as_dict()
    assert set(payload) >= {"name", "empirical", "bound", "sigma", "pass", "sampler"}
    assert payload["sampler"] == mc_verify.SAMPLERS["smallpovm"]
    assert payload["details"]["exact"] > 0.0
