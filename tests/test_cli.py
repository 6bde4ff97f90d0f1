"""End-to-end tests of the command-line interface."""

import contextlib
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bb84mm import cli
from bb84mm.channel_sim import ChannelSpec, expected_observations, sample_observations
from bb84mm.decoy import DecoyConfig, Observations
from bb84mm.detector_model import DetectorSpec, closed_form_deltas, oracle_deltas
from bb84mm.keyrate import EpsilonBudget, key_length_decoy
from bb84mm.mc_verify import TrialConfig

BASE_CONFIG = {
    "detector": {"eta_det": 0.7, "d_det": 1e-6, "delta_eta": 0.01, "delta_dc": 0.01},
    "decoy": {
        "intensities": [0.9, 0.1, 0.0],
        "probabilities": [1 / 3, 1 / 3, 1 / 3],
    },
    "channel": {"misalignment_deg": 2.0, "n_total": 10**9, "p_z_test": 0.05},
    "epsilons": {},
    "error_correction": {"f_ec": 1.16},
    "scan": {"loss_db": [0.0, 5.0, 10.0]},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


class TestKeyrateScan:
    def test_csv_schema_and_values(self, config_path, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run_cli("keyrate", "--config", config_path, "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == cli.CSV_HEADER
        assert len(lines) == 2 + 3
        row = lines[2].split(",")
        assert float(row[0]) == 0.0
        assert float(row[1]) >= 0.0

    def test_matches_in_process_pipeline(self, config_path, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli("keyrate", "--config", config_path, "--out", str(out))
        rows = out.read_text().splitlines()[2:]
        cfg = DecoyConfig.reference()
        det = DetectorSpec(0.7, 1e-6, 0.01, 0.01)
        deltas = closed_form_deltas(det)
        for row in rows:
            loss, rate, length = row.split(",")[:3]
            ch = ChannelSpec.reference(loss_db=float(loss), n_total=10**9, detector=det)
            obs = expected_observations(ch, cfg)
            decision = key_length_decoy(obs, cfg, deltas, EpsilonBudget(), f_ec=1.16)
            assert int(length) == decision.key_length
            assert float(rate) == pytest.approx(decision.key_length / 10**9, rel=1e-9)

    def test_empty_scan_gives_header_only(self, tmp_path):
        cfg = dict(BASE_CONFIG, scan={"loss_db": []})
        out = tmp_path / "scan.csv"
        assert run_cli("keyrate", "--config", _config(tmp_path, cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == cli.CSV_HEADER
        assert len(lines) == 2

    def test_byte_identical_reruns(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("keyrate", "--config", config_path, "--out", str(a))
        run_cli("keyrate", "--config", config_path, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestDelta:
    def test_zero_tolerance(self, tmp_path):
        cfg = dict(BASE_CONFIG, detector={"eta_det": 0.7, "d_det": 1e-6})
        out = tmp_path / "delta.json"
        assert run_cli("delta", "--config", _config(tmp_path, cfg), "--nmax", "3", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["closed_form"]["d1"] == 0.0
        assert abs(payload["oracle"]["d1"]) < 1e-10

    def test_one_percent(self, config_path, tmp_path):
        out = tmp_path / "delta.json"
        assert run_cli("delta", "--config", config_path, "--nmax", "3", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["closed_form"]["d1"] == pytest.approx(0.0398, abs=1e-3)
        assert payload["oracle"]["d1"] <= payload["closed_form"]["d1"] + 1e-9
        assert payload["oracle"]["d2"] <= payload["closed_form"]["d2"] + 1e-9
        assert "config" in payload

    def test_all_blind_corner(self, tmp_path):
        # At delta_eta = 1 the all-minimum corner has four zero efficiencies;
        # renormalized, it is the limit of four equal ones.
        detector = {"eta_det": 0.5, "d_det": 1e-6, "delta_eta": 1.0, "delta_dc": 0.01}
        path, out = _config(tmp_path, {"detector": detector}), tmp_path / "delta.json"
        assert run_cli("delta", "--config", path, "--nmax", "4", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        near = oracle_deltas(DetectorSpec(0.5, 1e-6, 1.0 - 1e-9, 0.01), n_max=4)
        assert np.isfinite(payload["oracle"]["d1"])
        assert payload["oracle"]["d1"] <= payload["closed_form"]["d1"]
        assert payload["oracle"]["d1"] == pytest.approx(near.delta1, abs=1e-8)

    def test_failed_eigen_solve_is_a_numeric_failure(self, config_path, monkeypatch, capsys):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        assert run_cli("delta", "--config", config_path, "--nmax", "3") == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "N=" in err


class TestSimulateDecoyRoundTrip:
    def test_round_trip_matches_in_process(self, config_path, tmp_path):
        obs_path, bounds_path, key_path = (tmp_path / name for name in ("obs.json", "bounds.json", "key.json"))
        assert run_cli("simulate", "--config", config_path, "--seed", "11", "--out", str(obs_path)) == 0
        payload = json.loads(obs_path.read_text())
        assert payload["config"]["seed"] == 11

        observed = ["--config", config_path, "--observations", str(obs_path)]
        assert run_cli("decoy", *observed, "--out", str(bounds_path)) == 0
        bounds = json.loads(bounds_path.read_text())
        assert set(bounds["bounds"]) == {"x", "x_err", "k"}
        for cls in bounds["bounds"].values():
            assert cls["single_lower"] <= cls["single_upper"] + 1e-9

        assert run_cli("keyrate", *observed, "--out", str(key_path)) == 0
        key = json.loads(key_path.read_text())

        # in-process recomputation from the emitted observations
        obs = Observations(**payload["observations"])
        detector = DetectorSpec(0.7, 1e-6, 0.01, 0.01)
        ch = ChannelSpec.reference(loss_db=0.0, n_total=10**9, detector=detector)
        assert obs == sample_observations(ch, DecoyConfig.reference(), seed=11)
        deltas = closed_form_deltas(detector)
        decision = key_length_decoy(obs, DecoyConfig.reference(), deltas, EpsilonBudget(), f_ec=1.16)
        assert key["key_length"] == decision.key_length
        assert key["phase_bound"] == pytest.approx(decision.phase_bound, rel=1e-12)

    def test_expected_mode_without_seed(self, config_path, tmp_path):
        out = tmp_path / "obs.json"
        assert run_cli("simulate", "--config", config_path, "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["mode"] == "expected"

    def test_seed_honored(self, config_path, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        run_cli("simulate", "--config", config_path, "--seed", "5", "--out", str(a))
        run_cli("simulate", "--config", config_path, "--seed", "5", "--out", str(b))
        run_cli("simulate", "--config", config_path, "--seed", "6", "--out", str(c))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


BARE_COUNTS = {"x": [9e5, 1e6, 1e5], "x_err": [900.0, 1200.0, 50000.0], "k": [8e5, 9e5, 9e4]}
FULL_RECORD = {"n_x": [9e5, 1e6, 1e5], "n_k": [8e5, 9e5, 9e4], "e_x": [1e-3, 1e-3, 0.5], "e_z": 0.01}


def _with(section, **fields):
    """BASE_CONFIG with fields set in one section."""
    return dict(BASE_CONFIG, **{section: dict(BASE_CONFIG.get(section, {}), **fields)})


def _config(tmp_path, cfg: dict) -> str:
    """The path of a config file holding ``cfg``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# Each case exits 2 with an input error naming its key; many used to run
# (exit 0), fail deep in the library (exit 1) or name no key.  A verify row
# runs the decoy lemma unless its command names another.
BOUNDARY_CASES = {
    "keyrate-bare-counts": ("keyrate", BASE_CONFIG, BARE_COUNTS, "'x'"),
    "keyrate-bare-counts-e_z": ("keyrate", BASE_CONFIG, dict(BARE_COUNTS, e_z=0.01), "'x'"),
    "decoy-bare-counts": ("decoy", BASE_CONFIG, BARE_COUNTS, "'x'"),
    "decoy-bare-counts-extra-key": ("decoy", BASE_CONFIG, dict(BARE_COUNTS, e_z=0.01), "'x'"),
    "keyrate-channel.loss_db": ("keyrate", _with("channel", loss_db=5.0), None, "loss_db"),
    "simulate-channel.loss_db": ("simulate", _with("channel", loss_db=5.0), None, "loss_db"),
    "simulate-scan.loss_db-string": ("simulate", _with("scan", loss_db="zero"), None, "scan.loss_db"),
    "simulate-scan.loss_db-strings": ("simulate", _with("scan", loss_db=["5"]), None, "scan.loss_db"),
    "epsilon-section": ("keyrate", dict(BASE_CONFIG, epsilon={"eps_pa": 1e-20}), None, "'epsilon'"),
    "error_correction.fec": ("keyrate", _with("error_correction", fec=1.5), None, "error_correction.fec"),
    "scan.loss": ("keyrate", _with("scan", loss=[0.0]), None, "scan.loss"),
    "keyrate-two-probabilities": ("keyrate", _with("decoy", probabilities=[0.5, 0.5]), None, "probabilities"),
    "simulate-two-probabilities": ("simulate", _with("decoy", probabilities=[0.5, 0.5]), None, "probabilities"),
    "verify-two-probabilities": ("verify", _with("decoy", probabilities=[0.5, 0.5]), None, "probabilities"),
    # intensities whose one-photon bound divides by zero (used to exit 3)
    "keyrate-intensities-1e-200": ("keyrate", _with("decoy", intensities=[1e-200, 5e-201, 0]), None, "intensities"),
    "keyrate-2-n_x": ("keyrate", BASE_CONFIG, dict(FULL_RECORD, n_x=[9e5, 1e6]), "n_x"),
    "keyrate-4-n_x": ("keyrate", BASE_CONFIG, dict(FULL_RECORD, n_x=[9e5, 1e6, 1e5, 1e5]), "n_x"),
    "decoy-2-n_x": ("decoy", BASE_CONFIG, dict(FULL_RECORD, n_x=[9e5, 1e6]), "n_x"),
    "decoy-4-n_x": ("decoy", BASE_CONFIG, dict(FULL_RECORD, n_x=[9e5, 1e6, 1e5, 1e5]), "n_x"),
    # a misspelled key in a section the subcommand does not read
    "delta-channel.n_totl": ("delta", _with("channel", n_totl=1e9), None, "channel.n_totl"),
    "delta-channel.transmissivity": ("delta", _with("channel", transmissivity=0.5), None, "channel.transmissivity"),
    "decoy-detector.eta": ("decoy", _with("detector", eta=0.7), FULL_RECORD, "detector.eta"),
    "simulate-epsilons.eps_p": ("simulate", _with("epsilons", eps_p=1e-12), None, "epsilons.eps_p"),
    "keyrate-verify.trails": ("keyrate", _with("verify", trails=1000), None, "verify.trails"),
    "verify-channel.p_ztest": ("verify", _with("channel", p_ztest=0.05), None, "channel.p_ztest"),
    "simulate-seed--1": ("simulate --seed -1", BASE_CONFIG, None, "seed must be a finite integer in [0, inf], got -1"),
    # counts whose sum overflows to inf
    "keyrate-n_x-1e308": ("keyrate", BASE_CONFIG, dict(FULL_RECORD, n_x=[1e308, 1e308, 1e308]), "n_x[0]"),
    "decoy-n_k-1e308": ("decoy", BASE_CONFIG, dict(FULL_RECORD, n_k=[1e308, 1e308, 1e3]), "n_k[0]"),
    **{
        f"keyrate-{name}-1e-200": ("keyrate", _with("epsilons", **{name: 1e-200}), None, name)
        for name in ("eps_at_a", "eps_at_b", "eps_at_c", "eps_at_d")
    },
    # a subnormal square or efficiency (used to exit 0: key 0, or deltas 0)
    "keyrate-eps_at_d-1e-161": ("keyrate", _with("epsilons", eps_at_d=1e-161), None, "epsilons.eps_at_d"),
    "keyrate-eta_det-5e-324": ("keyrate", _with("detector", eta_det=5e-324), None, "detector.eta_det"),
    # a value out of range, or no number, at the subcommand that reads it
    "delta-eta_det-1.5": (
        "delta", dict(BASE_CONFIG, detector={"eta_det": 1.5, "d_det": 1e-6}), None, "detector.eta_det"
    ),
    "keyrate-scan.loss_db-string": ("keyrate", _with("scan", loss_db="zero"), None, "scan.loss_db"),
    "keyrate-n_x-nan": ("keyrate", BASE_CONFIG, dict(FULL_RECORD, n_x=[math.nan, 1e6, 1e5]), "n_x"),
    "keyrate-n_x-inf": ("keyrate", BASE_CONFIG, dict(FULL_RECORD, n_x=[math.inf, 1e6, 1e5]), "n_x"),
    "keyrate-e_z--0.5": ("keyrate", BASE_CONFIG, dict(FULL_RECORD, e_z=-0.5), "e_z"),
    **{
        f"keyrate-f_ec-{bad}": ("keyrate", _with("error_correction", f_ec=bad), None, "error_correction.f_ec")
        for bad in (math.nan, math.inf, True)
    },
    "keyrate-n_total-inf": ("keyrate", _with("channel", n_total=math.inf), None, "channel.n_total"),
    "keyrate-channel.p_x_alice": ("keyrate", _with("channel", p_x_alice=0.5), None, "channel.p_x_alice"),
    "verify-constant_photons-7": ("verify", {"verify": {"constant_photons": 7}}, None, "verify.constant_photons"),
    # Above ~170 photons no intensity has a representable emission probability.
    "verify-photon_levels-400": (
        "verify", {"verify": {"photon_levels": 400, "trials": 1000}}, None, "verify.photon_levels"
    ),
    # The transfer profile spreads its rates down to 0.01; the other lemmas
    # do not read base_rate, so TrialConfig accepts [0, 1].
    **{
        f"verify-transfer-base_rate-{rate}": (
            "verify --lemma transfer --trials 1000", {"verify": {"base_rate": rate, "trials": 1000}}, None,
            "verify.base_rate",
        )
        for rate in (0.0, 0.005)
    },
    # a bool is not a number
    **{
        f"keyrate-{where}-bool": ("keyrate", _with(section, **fields), None, where)
        for section, fields, where in [
            ("detector", {"eta_det": True}, "detector.eta_det"),
            ("detector", {"delta_eta": False}, "detector.delta_eta"),
            ("decoy", {"intensities": [0.9, 0.1, False]}, "decoy.intensities[2]"),
            ("channel", {"misalignment_deg": True}, "channel.misalignment_deg"),
            ("channel", {"n_total": True}, "channel.n_total"),
            ("scan", {"loss_db": [True, 0]}, "scan.loss_db[0]"),
        ]
    },
    "keyrate-e_z-bool": ("keyrate", BASE_CONFIG, dict(FULL_RECORD, e_z=True), "e_z"),
    # a flag out of range
    "delta-nmax-0": ("delta --nmax 0", BASE_CONFIG, None, "n_max"),
    "delta-nmax-65": ("delta --nmax 65", BASE_CONFIG, None, "n_max"),
    "delta-seed--1": ("delta --seed -1", BASE_CONFIG, None, "seed"),
    # 10^(-400) underflows to 0; -1 dB would be a gain of 1.26; an integer
    # literal of 401 digits has no float at all.
    **{
        f"{command}-scan.loss_db-{name}": (command, _with("scan", loss_db=[loss, 0.0]), None, "scan.loss_db[0]")
        for command in ("keyrate", "simulate")
        for name, loss in (("4000", 4000.0), ("-1", -1.0), ("1e400-int", 10**400))
    },
    # every subcommand checks every section, also one it does not read
    **{
        f"{command.split()[0]}-{section}.{key}": (command, _with(section, **{key: value}), None, f"{section}.{key}")
        for command in ("delta --nmax 2", "simulate", "verify --lemma serfling --trials 1000")
        for section, key, value in [("epsilons", "eps_pa", "x"), ("channel", "p_z_test", 7),
                                    ("error_correction", "f_ec", 0.5)]
    },
    "verify-no-detector": (
        "verify --lemma serfling --trials 1000", {k: v for k, v in BASE_CONFIG.items() if k != "detector"}, None,
        "'detector'",
    ),
}


@pytest.mark.parametrize(
    "command, cfg, record, key", list(BOUNDARY_CASES.values()), ids=list(BOUNDARY_CASES)
)
def test_boundary_case_exits_2_and_names_its_key(tmp_path, capsys, command, cfg, record, key):
    argv = [*command.split(), "--config", _config(tmp_path, cfg), "--out", str(tmp_path / "out")]
    if record is not None:
        obs_path = tmp_path / "obs.json"
        obs_path.write_text(json.dumps(record))
        argv += ["--observations", str(obs_path)]
    if command == "verify":
        argv += ["--lemma", "decoy", "--trials", "1000"]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and key in err, err


class TestVerifyCommand:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run_cli(
            "verify", "--lemma", "smallpovm", "--trials", "5000", "--seed", "3", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"empirical", "bound", "sigma", "pass", "wall_s"}
        assert payload["pass"] is True
        assert isinstance(payload["wall_s"], float) and payload["wall_s"] >= 0.0

    def test_failed_lemma_check_says_so(self, tmp_path, capsys):
        # With p_test = 0 no trial is valid, so the serfling check fails.
        path, out = _config(tmp_path, {"verify": {"p_test": 0, "trials": 1000}}), tmp_path / "verify.json"
        assert run_cli("verify", "--lemma", "serfling", "--config", path, "--out", str(out)) == 3
        assert capsys.readouterr().err == "lemma check failed: serfling\n"
        assert json.loads(out.read_text())["pass"] is False


def _as_json(value):
    return json.loads(json.dumps(value))


def test_every_output_embeds_its_inputs(config_path, tmp_path):
    # Each output's config is the file's sections plus what its subcommand
    # resolved beyond the file; an observations file is embedded whole.
    # Every output is standard JSON, which has no Infinity or NaN.
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    def loads(text):
        return json.loads(text, parse_constant=reject)

    def payload(*argv):
        out = tmp_path / "out"
        assert run_cli(*argv, "--config", config_path, "--out", str(out)) == 0
        return out.read_text()

    csv = payload("keyrate").splitlines()
    assert loads(csv[0].removeprefix("# config=")) == BASE_CONFIG
    delta = loads(payload("delta", "--nmax", "2"))
    assert delta["config"] == {**BASE_CONFIG, "nmax": 2, "seed": 0}
    obs_path = tmp_path / "obs.json"
    obs_path.write_text(payload("simulate", "--seed", "7"))
    observations = loads(obs_path.read_text())
    assert observations["config"] == {**BASE_CONFIG, "loss_db": 0.0, "seed": 7, "mode": "sampled"}
    record = observations["observations"]
    for command in ("decoy", "keyrate"):
        out = loads(payload(command, "--observations", str(obs_path)))
        assert out["config"] == {**BASE_CONFIG, "observations": record}
    deltas = closed_form_deltas(DetectorSpec(0.7, 1e-6, 0.01, 0.01))
    obs = Observations(**out["config"]["observations"])
    decision = key_length_decoy(obs, DecoyConfig.reference(), deltas, EpsilonBudget(), f_ec=1.16)
    assert _as_json(dataclasses.asdict(decision)).items() <= out.items()
    verify = loads(payload("verify", "--lemma", "serfling", "--trials", "1000", "--seed", "1"))
    trials = dataclasses.asdict(TrialConfig(trials=1000, seed=1))
    assert verify["config"] == {**BASE_CONFIG, "verify": _as_json(trials), "lemma": "serfling"}


def test_a_non_finite_result_is_a_numeric_failure(tmp_path, capsys):
    # f_ec = 1e308 is valid, but lambda_ec overflows to inf, which standard
    # JSON cannot hold: exit 3 naming the field, and nothing is written.
    obs_path, out = tmp_path / "obs.json", tmp_path / "out.json"
    obs_path.write_text(json.dumps(FULL_RECORD))
    cfg_path = _config(tmp_path, _with("error_correction", f_ec=1e308))
    argv = ["keyrate", "--config", cfg_path, "--observations", str(obs_path)]
    assert run_cli(*argv, "--out", str(out)) == 3
    assert not out.exists()
    assert run_cli(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["numeric failure: lambda_ec is not finite; JSON cannot write it"] * 2


def test_unwritable_out_exits_2_naming_the_path(config_path, tmp_path, capsys):
    # The output is written after all the work, and a path that cannot take
    # it is bad input all the same.
    obs_path = tmp_path / "obs.json"
    obs_path.write_text(json.dumps(FULL_RECORD))
    observations = ["--observations", str(obs_path)]
    unwritable = str(tmp_path / "missing" / "out.json")
    for command in [
        ["keyrate"],
        ["keyrate", *observations],
        ["delta", "--nmax", "2"],
        ["decoy", *observations],
        ["simulate"],
        ["verify", "--lemma", "serfling", "--trials", "1000"],
    ]:
        assert run_cli(*command, "--config", config_path, "--out", unwritable) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("input error:") and unwritable in err and "Traceback" not in err, err


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path):
        assert run_cli("keyrate", "--config", str(tmp_path / "nope.json")) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli("keyrate", "--config", str(path)) == 2

    def test_missing_observations_file(self, config_path, tmp_path):
        assert run_cli("decoy", "--config", config_path, "--observations", str(tmp_path / "nope.json")) == 2

    @pytest.mark.parametrize("kind", ["config", "observations"])
    def test_file_that_is_not_utf8_is_named(self, config_path, tmp_path, capsys, kind):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"n_x": "\u00e9"}'.encode("latin-1"))
        files = {"config": config_path, "observations": config_path, kind: str(path)}
        argv = ["decoy", "--config", files["config"], "--observations", files["observations"]]
        assert run_cli(*argv) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, value, field",
        [("decoy", {"intensities": [20.0, 0.1, 0.0]}, "intensities"), ("channel", {"n_total": 1e19}, "n_total")],
    )
    def test_unsampleable_simulate_input(self, tmp_path, capsys, section, value, field):
        # The sampler lumps photon numbers above its cutoff and draws int64
        # counts; expectations need neither.
        cfg = dict(BASE_CONFIG, **{section: dict(BASE_CONFIG[section], **value)})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(path), "--seed", "1") == 2
        assert field in capsys.readouterr().err
        assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "obs.json")) == 0


def test_readme_config_runs_every_subcommand(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"A config covering every subcommand:\s*```json\n(.*?)```", readme, re.S)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(block.group(1))
    c, out = str(cfg), str(tmp_path / "out")
    assert run_cli("keyrate", "--config", c, "--out", out) == 0
    assert run_cli("delta", "--config", c, "--nmax", "2", "--out", out) == 0
    for seed in ([], ["--seed", "7"]):
        obs = str(tmp_path / "obs.json")
        assert run_cli("simulate", "--config", c, *seed, "--out", obs) == 0
        assert run_cli("decoy", "--config", c, "--observations", obs, "--out", out) == 0
        assert run_cli("keyrate", "--config", c, "--observations", obs, "--out", out) == 0
    verify = ["--lemma", "serfling", "--trials", "1000", "--seed", "1"]
    assert run_cli("verify", "--config", c, *verify, "--out", out) == 0


README_CONFIG = json.loads(
    re.search(
        r"A config covering every subcommand:\s*```json\n(.*?)```",
        (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"),
        re.S,
    ).group(1)
)
README_FIELDS = [f"{section}.{key}" for section, keys in README_CONFIG.items() for key in keys]
# Each bad value as JSON text; None deletes the key.
BAD_VALUES = {
    "string": '"x"', "null": "null", "list": "[]", "object": "{}", "nan": "NaN",
    "infinity": "Infinity", "-1": "-1", "0": "0", "1e308": "1e308", "10^400": "1" + "0" * 400,
    "deleted": None,
}
PROBE_COMMANDS = {
    "keyrate": ["keyrate"],
    "delta": ["delta", "--nmax", "2"],
    "simulate": ["simulate"],
    "verify": ["verify", "--lemma", "serfling", "--trials", "1000", "--seed", "1"],
}
PYTHON_WORDS = ("not supported between", "has no len()", "positional argument", "must be real number")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    command=st.sampled_from(sorted(PROBE_COMMANDS)),
    field=st.sampled_from(README_FIELDS),
    bad=st.sampled_from(sorted(BAD_VALUES)),
)
def test_a_bad_value_runs_or_is_named(tmp_path_factory, command, field, bad):
    # Every subcommand builds every section, so a value is valid or invalid
    # for all alike; an invalid one exits 2 naming 'section.key' (or
    # 'section.key[i]') in the library's words, never 3.
    section, key = field.split(".")
    cfg = json.loads(json.dumps(README_CONFIG))
    if BAD_VALUES[bad] is None:
        del cfg[section][key]
        text = json.dumps(cfg)
    else:
        cfg[section][key] = "@bad@"
        text = json.dumps(cfg).replace('"@bad@"', BAD_VALUES[bad])
    path = tmp_path_factory.mktemp("bad") / "cfg.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(*PROBE_COMMANDS[command], "--config", str(path), "--out", str(path.with_suffix(".out")))
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert field in err.getvalue()
        assert not any(words in err.getvalue() for words in PYTHON_WORDS), err.getvalue()


@pytest.mark.parametrize("command", ["keyrate", "decoy"])
@pytest.mark.parametrize(
    "key, bad",
    [(key, bad) for key in ("n_x", "n_k", "e_x", "e_z") for bad in BAD_VALUES]
    + [("n_x", "overflow"), ("n_k", "overflow")],
)
def test_a_bad_observation_runs_or_is_named(config_path, tmp_path, capsys, command, key, bad):
    # A bad value replaces a per-intensity field's first entry, or e_z;
    # "overflow" sets every entry to 1e308, so their sum is inf.
    record = dict(FULL_RECORD)
    if bad == "overflow":
        record[key] = [1e308] * 3
        text = json.dumps(record)
    elif BAD_VALUES[bad] is None:
        del record[key]
        text = json.dumps(record)
    else:
        record[key] = "@bad@" if key == "e_z" else ["@bad@", *record[key][1:]]
        text = json.dumps(record).replace('"@bad@"', BAD_VALUES[bad])
    path = tmp_path / "obs.json"
    path.write_text(text)
    code = run_cli(command, "--config", config_path, "--observations", str(path), "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code == 2:
        assert key in err
        assert not any(words in err for words in PYTHON_WORDS), err


@pytest.mark.parametrize(
    "section, at_bound, beyond, where",
    [
        ("channel", {"n_total": 10**24}, {"n_total": 10**24 + 1}, "channel.n_total"),
        ("decoy", {"intensities": [100, 0.1, 0]}, {"intensities": [100.5, 0.1, 0]}, "decoy.intensities[0]"),
        ("observations", {"n_x": [10**24, 1e6, 1e5]}, {"n_x": [10**24 + 1, 1e6, 1e5]}, "n_x[0]"),
    ],
)
def test_upper_bound_runs_every_subcommand(tmp_path, capsys, section, at_bound, beyond, where):
    # A config row sets its section, and decoy and keyrate read the
    # observations simulate writes from it; the observations row sets
    # fields of that file instead.
    path, out, obs = tmp_path / "cfg.json", str(tmp_path / "out"), tmp_path / "obs.json"
    c = str(path)

    def exit_codes(fields):
        path.write_text(json.dumps(_with(section, **fields) if section in BASE_CONFIG else BASE_CONFIG))
        codes = [
            run_cli("keyrate", "--config", c, "--out", out),
            run_cli("delta", "--config", c, "--nmax", "2", "--out", out),
            run_cli("simulate", "--config", c, "--out", str(obs)),
        ]
        if section not in BASE_CONFIG:
            obs.write_text(json.dumps(dict(FULL_RECORD, **fields)))
        return codes + [
            run_cli("decoy", "--config", c, "--observations", str(obs), "--out", out),
            run_cli("keyrate", "--config", c, "--observations", str(obs), "--out", out),
        ]

    assert exit_codes(at_bound) == [0] * 5
    assert exit_codes(beyond) == ([2] * 5 if section in BASE_CONFIG else [0, 0, 0, 2, 2])
    assert where in capsys.readouterr().err


def test_console_entry_point(config_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bb84mm.cli", "delta", "--config", config_path, "--nmax", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert "closed_form" in payload


def _fresh(script: str) -> list[str]:
    """The words ``script`` prints when run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_leaves_scipy_stats_unloaded(config_path, tmp_path):
    # No scipy module at all: not on import, nor through the subcommands that
    # evaluate no tail and draw no sample (a `delta` run samples a tolerance
    # box's interior; `decoy` reads the expected `simulate` observations).
    obs, delta = str(tmp_path / "obs.json"), str(tmp_path / "delta.json")
    runs = [
        [],
        ["simulate", "--config", config_path, "--out", obs],
        ["decoy", "--config", config_path, "--observations", obs, "--out", str(tmp_path / "decoy.json")],
        ["delta", "--config", config_path, "--out", delta],
    ]
    script = (
        "import sys; from bb84mm import cli\n"
        f"for argv in {runs!r}:\n"
        "    print(argv and cli.main(argv), any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    assert _fresh(script) == ["[]", "False"] + ["0", "False"] * (len(runs) - 1)
    assert json.loads(Path(delta).read_text())["oracle"]["d1"] > 0


def test_scipy_special_loads_on_the_first_tail_evaluation(config_path, tmp_path):
    # The counting hook is one object throughout, and a key-length decision
    # reaches the lazy import.
    hook = (
        "import sys; from bb84mm import stat_bounds; hook = stat_bounds.betainc\n"
        "print('scipy.special' in sys.modules, stat_bounds.binomial_tail(stat_bounds.TailQuery(100, 0.1, 0.05)) > 0,"
        " stat_bounds.betainc is hook, 'scipy.special' in sys.modules)"
    )
    assert _fresh(hook) == ["False", "True", "True", "True"]
    argv = ["keyrate", "--config", config_path, "--out", str(tmp_path / "scan.csv")]
    keyrate = (
        "import sys; from bb84mm import cli\n"
        f"print('scipy.special' in sys.modules, cli.main({argv!r}), 'scipy.special' in sys.modules)"
    )
    assert _fresh(keyrate) == ["False", "0", "True"]


def test_import_bb84mm_stays_thin():
    script = "import sys, bb84mm; print(bb84mm.__version__, 'numpy' in sys.modules, 'scipy' in sys.modules)"
    assert _fresh(script)[1:] == ["False", "False"]
