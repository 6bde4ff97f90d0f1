"""Tests for the statistical-bound primitives.

Every nontrivial expected value is produced by an independent oracle in this
file (exact rational summation for small n, log-space summation up to 1e5)
and only then compared against the production path.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bb84mm.channel_sim import ChannelSpec
from bb84mm.decoy import DecoyConfig, Observations, OutcomeCounts
from bb84mm.detector_model import DeltaPair, DetectorSpec
from bb84mm.keyrate import EpsilonBudget
from bb84mm.mc_verify import TrialConfig
from bb84mm.phase_error import PhaseErrorQuery
from bb84mm.stat_bounds import (
    TailQuery,
    _checked_number,
    _Record,
    _tail_at_count,
    binomial_tail,
    f_serf,
    gamma_bin,
    gamma_serf,
    hoeffding_decoy_dev,
)


def tail_exact(n: int, delta: float, c: float) -> float:
    """Oracle: exact rational binomial tail, feasible for n <= ~2000."""
    k0 = math.ceil(n * (delta + c) - 1e-9 * max(1.0, n * (delta + c)))
    if k0 <= 0:
        return 1.0
    if k0 > n:
        return 0.0
    d = Fraction(delta).limit_denominator(10**12)
    total = Fraction(0)
    for i in range(k0, n + 1):
        total += math.comb(n, i) * d**i * (1 - d) ** (n - i)
    return float(total)


def tail_logspace(n: int, delta: float, c: float) -> float:
    """Oracle: log-space summation, feasible for n <= ~1e5."""
    k0 = math.ceil(n * (delta + c) - 1e-9 * max(1.0, n * (delta + c)))
    if k0 <= 0:
        return 1.0
    if k0 > n or delta == 0.0:
        return 0.0
    i = np.arange(k0, n + 1)
    logpmf = np.array(
        [math.lgamma(n + 1) - math.lgamma(int(j) + 1) - math.lgamma(n - int(j) + 1) for j in i]
    )
    logpmf += i * math.log(delta) + (n - i) * math.log1p(-delta)
    m = logpmf.max()
    return float(math.exp(m) * np.exp(logpmf - m).sum())


class TestBinomialTail:
    def test_frozen_example(self):
        # n=10, delta=0.1, c=0.2: oracle gives 1 - P[Bin(10, 0.1) <= 2].
        expect = tail_exact(10, 0.1, 0.2)
        assert abs(expect - 0.0701908) < 1e-6  # oracle self-check
        got = binomial_tail(TailQuery(n=10, delta=0.1, c=0.2))
        assert got == pytest.approx(0.0702, abs=1e-4)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_zero_success_probability(self):
        for n in (1, 7, 10**6):
            assert binomial_tail(TailQuery(n=n, delta=0.0, c=0.1)) == 0.0
        # betainc is exact at the endpoints: an empty or a full tail.
        for n in (1, 7, 10**6, 10**12):
            for k in {1, max(n // 2, 1), n}:
                assert _tail_at_count(n, 0.0, k) == 0.0
                assert _tail_at_count(n, 1.0, k) == 1.0

    def test_empty_tail_when_threshold_exceeds_n(self):
        assert binomial_tail(TailQuery(n=100, delta=0.5, c=0.6)) == 0.0

    def test_threshold_zero_gives_one(self):
        assert binomial_tail(TailQuery(n=50, delta=0.3, c=0.0)) <= 1.0
        # c=0 with delta=0 leaves the threshold at zero: full mass.
        assert binomial_tail(TailQuery(n=50, delta=0.0, c=0.0)) == 1.0

    def test_agrees_with_exact_summation_small_n(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 400))
            delta = float(rng.uniform(0.001, 0.999))
            c = float(rng.uniform(0.0, 1.0))
            expect = tail_exact(n, delta, c)
            got = binomial_tail(TailQuery(n=n, delta=delta, c=c))
            assert got == pytest.approx(expect, rel=1e-9, abs=1e-300)

    def test_agrees_with_logspace_summation_to_1e4(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(10**3, 10**4))
            delta = float(rng.uniform(0.001, 0.5))
            c = float(rng.uniform(0.0, 0.2))
            expect = tail_logspace(n, delta, c)
            got = binomial_tail(TailQuery(n=n, delta=delta, c=c))
            if expect > 1e-280:
                assert got == pytest.approx(expect, rel=1e-9)

    def test_monotone_in_c(self):
        # Non-increasing in c (grid scan, n <= 200).
        for n in (3, 17, 200):
            cs = np.linspace(0.0, 1.0, 21)
            for d in (0.05, 0.3, 0.77):
                vals = [binomial_tail(TailQuery(n=n, delta=d, c=float(c))) for c in cs]
                assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_delta_at_fixed_threshold(self):
        # The tail at a fixed start count grows with delta; as a function of
        # c-parametrized queries the growth holds between the integer jumps
        # of the threshold (the literal all-delta statement fails exactly at
        # those jumps, where the tail start moves up by one).
        for n in (3, 17, 200):
            for k in (1, n // 2, n):
                vals = [_tail_at_count(n, float(d), k) for d in np.linspace(0.0, 1.0, 41)]
                assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        # within one threshold cell, the c-form is monotone in delta too
        n, c = 100, 0.1
        deltas = np.linspace(0.201, 0.209, 9)  # threshold fixed at 31
        vals = [binomial_tail(TailQuery(n=n, delta=float(d), c=c)) for d in deltas]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_large_n_stability(self):
        # Must return a finite probability without overflow at n = 1e12.
        v = binomial_tail(TailQuery(n=10**12, delta=0.01, c=1e-5))
        assert 0.0 <= v <= 1.0
        # A tiny deviation on a huge sample leaves appreciable tail mass;
        # a large one crushes it.
        assert binomial_tail(TailQuery(n=10**12, delta=0.01, c=1e-8)) > 0.4
        assert binomial_tail(TailQuery(n=10**12, delta=0.01, c=1e-3)) == 0.0

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            TailQuery(n=10, delta=-0.1, c=0.1)
        with pytest.raises(ValueError):
            TailQuery(n=10, delta=1.1, c=0.1)
        with pytest.raises(ValueError):
            TailQuery(n=0, delta=0.1, c=0.1)


class TestGammaBin:
    def test_zero_delta_is_exact_zero(self):
        for n in (1, 10, 10**9):
            assert gamma_bin(n, 0.0, 1e-24) == 0.0

    def test_inversion_postcondition(self):
        # Smallest-c property against the exact-summation oracle.
        n, delta, eps_sq = 1000, 0.01, 1e-6
        c = gamma_bin(n, delta, eps_sq)
        assert tail_exact(n, delta, c) <= eps_sq
        assert tail_exact(n, delta, c - 0.001) > eps_sq

    def test_inversion_on_random_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(120):
            n = int(rng.integers(1, 10**4))
            delta = float(rng.uniform(1e-4, 0.9999))
            eps_sq = float(10.0 ** rng.uniform(-24, -0.5))
            c = gamma_bin(n, delta, eps_sq)
            assert binomial_tail(TailQuery(n=n, delta=delta, c=min(c, 1.0))) <= eps_sq
            if c >= 1.0 / n and c - 1.0 / n <= 1.0:
                assert (
                    binomial_tail(TailQuery(n=n, delta=delta, c=c - 1.0 / n)) > eps_sq
                )

    def test_near_one_delta_hits_endpoint(self):
        # delta so large that only the empty tail satisfies the target.
        n, delta = 10, 0.999
        c = gamma_bin(n, delta, 1e-24)
        # Exhaustive scan over the 11 possible thresholds.
        best = None
        for k in range(0, n + 2):
            tail = tail_exact(n, delta, k / n - delta) if k / n >= delta else 1.0
            if tail <= 1e-24:
                best = k / n - delta
                break
        assert best is not None
        assert c == pytest.approx(best, abs=1e-12)
        assert c <= 1.0 - delta + 1.0 / n + 1e-12

    def test_monotone_in_n(self):
        for delta in (0.01, 0.1):
            vals = [gamma_bin(n, delta, 1e-10) for n in (100, 400, 1600, 6400)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_large_n(self):
        c = gamma_bin(10**12, 0.01, 1e-24)
        assert 0.0 < c < 1e-4
        assert binomial_tail(TailQuery(n=10**12, delta=0.01, c=c)) <= 1e-24

    @settings(max_examples=300)
    @given(
        n=st.integers(1, 10**12),
        delta=st.floats(0.0, 1.0, exclude_min=True),
        eps_sq=st.floats(1e-30, 0.5),
    )
    def test_postcondition_everywhere(self, n, delta, eps_sq):
        c = gamma_bin(n, delta, eps_sq)
        assert binomial_tail(TailQuery(n=n, delta=delta, c=min(c, 1.0))) <= eps_sq
        if c >= 1.0 / n:
            assert binomial_tail(TailQuery(n=n, delta=delta, c=min(c - 1.0 / n, 1.0))) > eps_sq


class TestGammaSerf:
    def test_frozen_example_symmetric_1e5(self):
        # Direct evaluation: f = 1e15 / (2e5 * 100001), ln(1e24) = 55.2620...
        f = 1e5 * 1e5**2 / ((2e5) * (1e5 + 1))
        expect = math.sqrt(math.log(1e24) / f)
        assert expect == pytest.approx(0.033245, abs=1e-6)  # oracle self-check
        assert gamma_serf(10**5, 10**5, 1e-24) == pytest.approx(expect, rel=1e-12)

    def test_frozen_example_symmetric_100(self):
        f = 100 * 100**2 / (200 * 101)
        expect = math.sqrt(math.log(1e12) / f)
        got = gamma_serf(100, 100, 1e-12)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(0.747092, abs=1e-5)

    def test_eps_one_gives_zero(self):
        assert gamma_serf(10, 10, 1.0) == 0.0

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            gamma_serf(0, 10, 1e-6)
        with pytest.raises(ValueError):
            gamma_serf(10, 0, 1e-6)

    def test_inverse_sqrt_scaling(self):
        for n in (10**3, 10**4, 10**5):
            ratio = gamma_serf(4 * n, 4 * n, 1e-20) / gamma_serf(n, n, 1e-20)
            assert 0.49 <= ratio <= 0.51

    def test_monotone_in_n(self):
        vals = [gamma_serf(n, n, 1e-10) for n in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestHoeffdingDecoyDev:
    def test_zero_rounds(self):
        assert hoeffding_decoy_dev(0, 1e-6) == 0.0

    def test_frozen_example(self):
        expect = math.sqrt(1e6 * math.log(2e24))
        assert expect == pytest.approx(7480.3, abs=0.5)  # oracle self-check
        assert hoeffding_decoy_dev(2 * 10**6, 1e-24) == pytest.approx(expect, rel=1e-12)

    def test_unit_case(self):
        # eps_sq = 2/e makes ln(2/eps_sq) = 1, so the deviation is sqrt(n/2).
        assert hoeffding_decoy_dev(2, 2 / math.e) == pytest.approx(1.0, rel=1e-12)


def test_f_serf_matches_definition():
    assert f_serf(10**5, 10**5) == pytest.approx(1e15 / (2e5 * 100001), rel=1e-12)


@pytest.mark.parametrize(
    "value, kind, ends, expect",
    [
        (0.5, float, "()", 0.5),
        (1, float, "[]", 1),
        (np.float64(0.5), float, "[]", np.float64(0.5)),
        (1e12, int, "[]", 10**12),
        (np.int64(7), int, "[]", 7),
        (0.0, float, "(]", None),
        (1.0, float, "[)", None),
        (2.5, int, "[]", None),
        (True, float, "[]", None),
        (False, int, "[]", None),
        ("0.5", float, "[]", None),
        (math.nan, float, "[]", None),
        (10**400, int, "[]", None),
    ],
)
def test_checked_number(value, kind, ends, expect):
    # Over [0, inf) for integers, [0, 1] otherwise; None: rejected by name.
    hi = math.inf if kind is int else 1.0
    if expect is None:
        with pytest.raises(ValueError, match="^x must be a finite"):
            _checked_number("x", value, 0.0, hi, kind, ends)
    else:
        got = _checked_number("x", value, 0.0, hi, kind, ends)
        assert got == expect and type(got) is type(expect)


# Fields no table row covers: a nested record, which checks itself, or a
# rule of its own in the record's __post_init__.
NESTED = {(ChannelSpec, "detector"): DetectorSpec, (PhaseErrorQuery, "deltas"): DeltaPair}
OWN_RULE = {(TrialConfig, "profile")}  # one of PROFILES


RECORDS = [DetectorSpec, DeltaPair, ChannelSpec, DecoyConfig, OutcomeCounts, Observations,
           EpsilonBudget, PhaseErrorQuery, TailQuery, TrialConfig]


def test_every_input_record_has_a_table():
    assert set(_Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_record_field_is_checked(cls):
    rows = set(cls._FIELDS)
    for f in dataclasses.fields(cls):
        if (cls, f.name) in NESTED:
            assert f.name not in rows and hasattr(NESTED[cls, f.name], "_FIELDS")
        else:
            assert f.name in rows or (cls, f.name) in OWN_RULE, f.name
    assert rows <= {f.name for f in dataclasses.fields(cls)}
