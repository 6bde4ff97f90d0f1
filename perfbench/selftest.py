"""Self-tests of the benchmark's checks: each must pass a correct output and
reject a planted wrong one.

Usage, from the repository root:

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py
"""

import dataclasses
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from bb84mm import channel_sim, decoy, detector_model, keyrate, stat_bounds  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

REF = decoy.DecoyConfig.reference()
MUS, PS = REF.intensities, REF.probabilities
BUDGET = keyrate.EpsilonBudget.equal(1e-12)
EPS_SQ = BUDGET.eps_at_d**2


def _channel(loss_db=10.0, d_det=1e-6):
    return channel_sim.ChannelSpec(
        transmissivity=10.0 ** (-loss_db / 10.0),
        misalignment_deg=2.0,
        detector=detector_model.DetectorSpec(0.7, d_det),
        n_total=10**12,
    )


def _scan_op(seed=3):
    wl = workloads.KeyrateScan(seed)
    x = wl.op_input(0)
    return wl, x, wl.op(x)


# -- the independent formulas agree with the library where both apply -------


def test_formulas_match_library():
    for tol in ((0.01, 0.01), (0.05, 0.0), (0.0, 0.02)):
        spec = detector_model.DetectorSpec(0.7, 1e-6, *tol)
        lib = detector_model.closed_form_deltas(spec)
        mine = checks.closed_form(0.7, 1e-6, *tol)
        assert abs(lib.delta1 - mine[0]) < 1e-15 and abs(lib.delta2 - mine[1]) < 1e-15
    ch = _channel()
    obs = channel_sim.expected_observations(ch, REF)
    exp = checks.expected_counts(ch, MUS, PS)
    assert np.allclose(obs.n_x, exp["x"], rtol=1e-12) and np.allclose(obs.n_k, exp["k"], rtol=1e-12)
    assert np.allclose(obs.n_x_err, exp["x_err"], rtol=1e-12)
    counts = decoy.OutcomeCounts(tuple(obs.n_k))
    lib_bounds = (
        decoy.bound_vacuum_lower(counts, REF, EPS_SQ),
        decoy.bound_single_lower(counts, REF, EPS_SQ),
        decoy.bound_single_upper(counts, REF, EPS_SQ),
    )
    assert np.allclose(lib_bounds, checks.decoy_bounds(obs.n_k, MUS, PS, EPS_SQ), rtol=1e-12)
    tail = stat_bounds.binomial_tail(stat_bounds.TailQuery(n=2000, delta=0.01, c=0.005))
    assert math.isclose(tail, checks.binomial_upper_tail(2000, 0.01, 30), rel_tol=1e-10)
    below = 1.0 - stat_bounds.binomial_tail(stat_bounds.TailQuery(n=2000, delta=0.01, c=0.0))
    assert math.isclose(below, checks.binomial_lower_tail(2000, 0.01, 19), rel_tol=1e-10)


# -- keyrate_scan ------------------------------------------------------------


def test_scan_check_accepts_correct_op():
    wl, x, out = _scan_op()
    assert wl.check(x, out) == []


def test_rejects_key_above_single_photon_bound():
    obs = channel_sim.expected_observations(_channel(), REF)
    deltas = detector_model.closed_form_deltas(detector_model.DetectorSpec(0.7, 1e-6, 0.01, 0.01))
    dec = keyrate.key_length_decoy(obs, REF, deltas, BUDGET)
    assert checks.check_decision("ok", obs, dec, MUS, PS, EPS_SQ) == []
    single = checks.decoy_bounds(obs.n_k, MUS, PS, EPS_SQ)[1]
    planted = dataclasses.replace(dec, key_length=math.floor(single) + 1)
    assert checks.check_decision("planted", obs, planted, MUS, PS, EPS_SQ)


def test_rejects_negative_and_infeasible_keys():
    obs = channel_sim.expected_observations(_channel(), REF)
    dec = keyrate.KeyDecision(key_length=-1, lambda_ec=0.0, phase_bound=0.1, feasible=True)
    assert checks.check_decision("negative", obs, dec, MUS, PS, EPS_SQ)
    infeasible = keyrate.KeyDecision(key_length=0, lambda_ec=0.0, phase_bound=1.0, feasible=False)
    object.__setattr__(infeasible, "key_length", 5)
    assert checks.check_decision("infeasible", obs, infeasible, MUS, PS, EPS_SQ)


def test_rejects_tags_outside_decoy_bounds_and_far_counts():
    ch = _channel()
    obs, tags = channel_sim.sample_observations(ch, REF, seed=5, with_tags=True)
    exp = checks.expected_counts(ch, MUS, PS)
    assert checks.check_sample("ok", obs, tags, exp, ch.n_total, MUS, PS, EPS_SQ) == []
    moved = channel_sim.PhotonTags(x=tags.x.copy(), x_err=tags.x_err.copy(), k=tags.k.copy())
    moved.k[2] += moved.k[1]
    moved.k[1] = 0.0
    assert any("decoy bounds" in f for f in checks.check_sample("tags", obs, moved, exp, ch.n_total, MUS, PS, EPS_SQ))
    far = dict(exp, x=[v + 10.0 * math.sqrt(v) for v in exp["x"]])
    assert any("sd from" in f for f in checks.check_sample("far", obs, tags, far, ch.n_total, MUS, PS, EPS_SQ))


def test_rejects_key_growing_with_loss_or_tolerance():
    wl, x, (deltas, points) = _scan_op()
    spec, channels, _ = x
    swapped = list(points)
    swapped[0], swapped[1] = points[1], points[0]
    swapped[0] = dataclasses.replace(swapped[0], loss_db=points[0].loss_db)
    swapped[1] = dataclasses.replace(swapped[1], loss_db=points[1].loss_db)
    fails = checks.check_scan(spec, channels, REF, BUDGET, deltas, swapped, checks.ScanHistory())
    assert any("grows with loss" in f for f in fails)

    history = checks.ScanHistory()
    assert history.add((1e-6, 0.01, 0.01), (10, 5, 0)) == []
    assert history.add((1e-6, 0.0, 0.0), (12, 6, 1)) == []
    assert history.add((1e-6, 0.02, 0.01), (10, 6, 0))  # above the 0.01 spec at one loss
    assert history.add((1e-6, 0.01, 0.01), (10, 5, 1))  # same spec, different scan


def test_rejects_wrong_closed_form():
    wl, x, (deltas, points) = _scan_op()
    spec, channels, _ = x
    planted = detector_model.DeltaPair(deltas.delta1 + 1e-9, deltas.delta2)
    fails = checks.check_scan(spec, channels, REF, BUDGET, planted, points, checks.ScanHistory())
    assert any("closed form" in f for f in fails)


# -- mismatch_oracle ---------------------------------------------------------


def test_rejects_oracle_above_closed_form():
    spec = detector_model.DetectorSpec(0.7, 1e-6, 0.01, 0.01)
    d1, d2 = checks.closed_form(0.7, 1e-6, 0.01, 0.01)
    ok = detector_model.DeltaPair(d1 * 0.99, d2)
    assert checks.check_oracle(spec, ok) == []
    assert checks.check_oracle(spec, detector_model.DeltaPair(d1 + 1e-9, d2))
    assert checks.check_oracle(spec, detector_model.DeltaPair(d1 * 0.99, d2 * 0.99))
    assert checks.check_oracle(spec, detector_model.DeltaPair(0.0, d2))


def test_oracle_check_accepts_small_oracle_run():
    spec = detector_model.DetectorSpec(0.7, 1e-6, 0.02, 0.02)
    assert checks.check_oracle(spec, detector_model.oracle_deltas(spec, n_max=2, interior_samples=2)) == []


# -- lemma_suite -------------------------------------------------------------


def test_lemma_checks_accept_and_reject():
    wl = workloads.LemmaSuite(7)
    x = wl.op_input(0)
    reports = wl.op(x)
    assert wl.check(x, reports) == []
    serf, small, transfer, dec = reports
    exact = wl.exact.values()["small_tail"]
    sd = math.sqrt(exact * (1.0 - exact) / x[0].trials)
    for sign in (1.0, -1.0):
        planted = dataclasses.replace(small, empirical=exact + sign * 10.0 * sd)
        assert any("small-POVM frequency" in f for f in checks.check_lemmas(x, (serf, planted, transfer, dec), wl.exact))
    high = dataclasses.replace(serf, empirical=serf.bound + 10.0 * math.sqrt(serf.bound / x[0].trials))
    assert checks.check_lemmas(x, (high, small, transfer, dec), wl.exact)
    rows = [dict(r) for r in dec.details["per_intensity"]]
    rows[1]["empirical"] = 0.01
    planted = dataclasses.replace(dec, details=dict(dec.details, per_intensity=rows))
    assert checks.check_lemmas(x, (serf, small, transfer, planted), wl.exact)
    grid = [dict(r) for r in transfer.details["grid"]]
    grid[-1]["left"] = grid[-1]["right"] + 0.2
    planted = dataclasses.replace(transfer, details=dict(transfer.details, grid=grid))
    assert checks.check_lemmas(x, (serf, small, planted, dec), wl.exact)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
