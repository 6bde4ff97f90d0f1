"""Tests for the statistical-bound primitives.

Every nontrivial expected value is produced by an independent oracle in this
file (exact rational summation for small n, log-space summation up to 1e5)
and only then compared against the production path.
"""

import dataclasses
import inspect
import math
import typing
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bb84mm import channel_sim, decoy, detector_model, keyrate, mc_verify, phase_error, stat_bounds
from bb84mm.channel_sim import ChannelSpec, PhotonTags, expected_observations
from bb84mm.decoy import DecoyConfig, Observations, OutcomeCounts
from bb84mm.detector_model import MAX_BLOCK_PHOTONS, DeltaPair, DetectorSpec, PovmBlock
from bb84mm.keyrate import EpsilonBudget, KeyDecision
from bb84mm.mc_verify import TrialConfig, VerifierReport
from bb84mm.phase_error import MismatchBound, PhaseErrorQuery
from bb84mm.stat_bounds import (
    TailQuery,
    _checked_number,
    _Record,
    _tail_at_count,
    binomial_quantile,
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


def quantile_bisection(n: int, delta: float, eps_sq: float) -> float:
    """Oracle: the full-range bisection binomial_quantile once was, kept
    verbatim; the search must end on the same k."""
    if delta == 0.0:
        return 0.0
    lo, hi = 0, n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _tail_at_count(n, delta, mid) <= eps_sq:
            hi = mid
        else:
            lo = mid + 1
    return lo / n


def quantile_and_tail_evals(n: int, delta: float, eps_sq: float) -> tuple[float, int]:
    """binomial_quantile and the tail evaluations it made, counted through
    ``stat_bounds.betainc``, the hook the benchmark's tracer counts too."""
    with mock.patch.object(stat_bounds, "betainc", wraps=stat_bounds.betainc) as counted:
        return binomial_quantile(n, delta, eps_sq), counted.call_count


def probe_bound(n: int) -> int:
    """Six probes that may step by Newton, then a bisection of [0, n + 1]."""
    return 6 + math.ceil(math.log2(n + 2))


# The reference detector (eta_det 0.7, d_det 1e-6) at 1 % and 5 % tolerances.
KEYRATE_DELTAS = [
    d
    for p in (detector_model.closed_form_deltas(DetectorSpec(0.7, 1e-6, t, t)) for t in (0.01, 0.05))
    for d in (p.delta1, p.delta2)
]


class TestBinomialQuantile:
    @settings(max_examples=500)
    @given(
        n=st.integers(1, 10**12),
        delta=st.floats(0.0, 1.0, exclude_min=True),
        eps_sq=st.floats(5e-324, 1.0 - 2.0**-53),
    )
    def test_matches_bisection_within_the_probe_bound(self, n, delta, eps_sq):
        got, evals = quantile_and_tail_evals(n, delta, eps_sq)
        assert got == quantile_bisection(n, delta, eps_sq)
        assert evals <= probe_bound(n)

    @pytest.mark.parametrize(
        "n, delta, eps_sq",
        [
            # delta = 1: every tail inside [1, n] is 1, the answer is n + 1.
            (1, 1.0, 1e-24), (10, 1.0, 0.5), (10**12, 1.0, 5e-324),
            # one trial
            (1, 0.3, 0.29), (1, 0.3, 0.3), (1, 0.3, 0.31), (1, 5e-324, 1e-300), (1, 0.5, 1.0 - 2.0**-53),
            # eps_sq near 1: the answer sits at or just above the mean
            (10**12, 0.01, 1.0 - 2.0**-53), (1000, 0.5, 0.999999), (7, 0.9, 1.0 - 2.0**-53),
            # tails that underflow to 0 before the answer
            (10**12, 0.5, 5e-324), (10**9, 1e-3, 5e-324), (10**6, 0.999, 1e-300),
            (1000, 0.5, 5e-324), (200, 0.3, 5e-324),
        ],
    )
    def test_matches_bisection_on_edge_rows(self, n, delta, eps_sq):
        got, evals = quantile_and_tail_evals(n, delta, eps_sq)
        assert got == quantile_bisection(n, delta, eps_sq)
        assert evals <= probe_bound(n)

    @pytest.mark.parametrize("delta", KEYRATE_DELTAS)
    def test_few_tail_evals_at_key_length_sizes(self, delta):
        # A slide back to a full bisection takes 24-35 here.
        for n in np.geomspace(1e7, 3e10, 40).astype(int).tolist():
            got, evals = quantile_and_tail_evals(n, delta, 1e-24)
            assert got == quantile_bisection(n, delta, 1e-24)
            assert evals <= 6, (n, evals)


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
        (0.0, float, "[]", 0.0),
        (0, int, "[]", 0),
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


@pytest.mark.parametrize("value, lo", [(math.inf, 0.0), (-math.inf, -math.inf)])
def test_checked_number_never_takes_an_infinite_end(value, lo):
    # The fast path accepts a value on a closed end only when that end is finite.
    with pytest.raises(ValueError, match="^x must be a finite"):
        _checked_number("x", value, lo, math.inf)


# Every scalar argument of every public function: the function, a valid
# call, and each scalar argument's (lo, hi, kind, ends) range.
COUNT = (0, math.inf, int, "[]")
POSITIVE = (1, math.inf, int, "[]")
UNIT = (0.0, 1.0, float, "[]")
EPS = (0.0, 1.0, float, "()")
EPS_CLOSED = (0.0, 1.0, float, "(]")
EPS_DECOY = (0.0, 2.0, float, "()")  # the two-sided Hoeffding deviation's range
F_EC = (1.0, math.inf, float, "[)")
BLOCK = (0, MAX_BLOCK_PHOTONS, int, "[]")
_CFG = DecoyConfig.reference()
_COUNTS = OutcomeCounts((1e4, 1e3, 10.0))
_BOX = {"eta": (0.7,) * 4, "dc": (1e-6,) * 4}
_DECISION = {"deltas": DeltaPair(0.01, 0.005), "budget": EpsilonBudget()}
_CHANNEL = ChannelSpec.reference(10.0, n_total=10**4)
ARGUMENTS = [
    (binomial_quantile, {"n": 100, "delta": 0.1, "eps_sq": 1e-10},
     {"n": POSITIVE, "delta": UNIT, "eps_sq": EPS}),
    (gamma_bin, {"n": 100, "delta": 0.1, "eps_sq": 1e-10},
     {"n": POSITIVE, "delta": UNIT, "eps_sq": EPS}),
    (gamma_serf, {"n_test": 10, "n_key": 10, "eps_sq": 1e-10},
     {"n_test": POSITIVE, "n_key": POSITIVE, "eps_sq": EPS_CLOSED}),
    (hoeffding_decoy_dev, {"n_outcome": 10.0, "eps_sq": 1e-10},
     {"n_outcome": (0.0, math.inf, float, "[]"), "eps_sq": EPS_DECOY}),
    (decoy.tau, {"m": 1, "cfg": _CFG}, {"m": COUNT}),
    (decoy.intensity_given_photon, {"m": 1, "cfg": _CFG}, {"m": COUNT}),
    *((f, {"counts": _COUNTS, "cfg": _CFG, "eps_sq": 1e-10}, {"eps_sq": EPS_DECOY})
      for f in (decoy.decoy_bounds, decoy.bound_vacuum_lower, decoy.bound_single_lower,
                decoy.bound_single_upper)),
    (keyrate.binary_entropy, {"x": 0.1}, {"x": UNIT}),
    (keyrate.lambda_ec_default, {"n_key": 100.0, "e_z": 0.1, "f_ec": 1.16},
     {"n_key": (0.0, math.inf, float, "[]"), "e_z": UNIT, "f_ec": F_EC}),
    (keyrate.key_length_decoy,
     {"obs": expected_observations(ChannelSpec.reference(10.0), _CFG), "cfg": _CFG, **_DECISION},
     {"f_ec": F_EC}),
    (phase_error.bound_perfect, {"e_obs": 0.02, "n_test": 100, "n_key": 100, "eps_sq": 1e-10},
     {"e_obs": UNIT, "n_test": COUNT, "n_key": COUNT, "eps_sq": EPS_CLOSED}),
    (detector_model.mode_rotation_unitary, {"n": 2}, {"n": BLOCK}),
    (detector_model.build_block_povm, {"n": 1, **_BOX}, {"n": BLOCK}),
    (detector_model.build_block_povms, {"n_max": 1, **_BOX}, {"n_max": BLOCK}),
    (detector_model.block_deltas, {"n": 1, **_BOX}, {"n": BLOCK}),
    (detector_model.oracle_deltas,
     {"spec": DetectorSpec(0.7, 1e-6, 0.01, 0.01), "n_max": 1, "interior_samples": 0, "seed": 0},
     {"n_max": (1, MAX_BLOCK_PHOTONS, int, "[]"), "interior_samples": COUNT, "seed": COUNT}),
    (channel_sim.sample_observations, {"ch": _CHANNEL, "cfg": _CFG, "seed": 0}, {"seed": COUNT}),
]
SCALAR_ARGUMENTS = [
    (f, call, name, bounds) for f, call, rows in ARGUMENTS for name, bounds in rows.items()
]
# Public names that are results the library builds, not inputs, and the
# arguments that are arrays or flags rather than scalars or records.
RESULTS = {KeyDecision, MismatchBound, PhotonTags, PovmBlock, VerifierReport}
NOT_SCALAR = {
    *((f, name) for f in (detector_model.build_block_povm, detector_model.build_block_povms,
                          detector_model.block_deltas) for name in ("eta", "dc")),
    (mc_verify.poisson_binomial_pmf, "p"),
    (channel_sim.sample_observations, "with_tags"),
}


def _bad_values(lo, hi, kind, ends):
    """NaN, both infinities, a bool, a fraction for an integer argument and
    the nearest values outside each finite end."""
    bad = [math.nan, math.inf, -math.inf, True]
    if kind is int:
        bad.append(lo + 0.5)
    for end, closed, step in ((lo, ends[0] == "[", -1), (hi, ends[1] == "]", 1)):
        if math.isfinite(end):
            outside = end + step if kind is int else math.nextafter(end, step * math.inf)
            bad.append(outside if closed else end)
    return bad


@pytest.mark.parametrize(
    "func, call, name, bounds", SCALAR_ARGUMENTS,
    ids=[f"{f.__name__}-{name}" for f, _, name, _ in SCALAR_ARGUMENTS],
)
def test_every_public_scalar_argument_is_checked(func, call, name, bounds):
    func(**call)
    for bad in _bad_values(*bounds):
        try:
            func(**{**call, name: bad})
        except ValueError as exc:
            assert str(exc).startswith(f"{name} "), (bad, str(exc))
        else:
            pytest.fail(f"{func.__name__}({name}={bad!r}) was accepted")


def test_every_public_argument_is_in_the_table():
    # Each argument of a public function is a record (which checks itself),
    # a row of ARGUMENTS, or an array or flag named in NOT_SCALAR.
    table = {(f, name) for f, _, name, _ in SCALAR_ARGUMENTS}
    modules = (stat_bounds, decoy, detector_model, phase_error, keyrate, channel_sim, mc_verify)
    for module in modules:
        for attr in module.__all__:
            obj = getattr(module, attr)
            if isinstance(obj, type):
                assert obj in RECORDS or obj in RESULTS, attr
                continue
            hints = typing.get_type_hints(obj)
            for name in inspect.signature(obj).parameters:
                hint = hints.get(name)
                types = typing.get_args(hint) or (hint,)
                is_record = any(t in RECORDS for t in types)
                assert is_record or (obj, name) in table or (obj, name) in NOT_SCALAR, (attr, name)
