"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys

import pytest

from bb84mm import cli
from bb84mm.channel_sim import ChannelSpec, expected_observations
from bb84mm.decoy import DecoyConfig
from bb84mm.detector_model import DetectorSpec, closed_form_deltas
from bb84mm.keyrate import EpsilonBudget, key_length_decoy

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
            ch = ChannelSpec.reference(
                loss_db=float(loss), n_total=10**9, detector=det
            )
            obs = expected_observations(ch, cfg)
            decision = key_length_decoy(obs, cfg, deltas, EpsilonBudget(), f_ec=1.16)
            assert int(length) == decision.key_length
            assert float(rate) == pytest.approx(decision.key_length / 10**9, rel=1e-9)

    def test_empty_scan_gives_header_only(self, tmp_path):
        cfg = dict(BASE_CONFIG, scan={"loss_db": []})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "scan.csv"
        assert run_cli("keyrate", "--config", str(path), "--out", str(out)) == 0
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
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "delta.json"
        assert run_cli("delta", "--config", str(path), "--nmax", "3", "--out", str(out)) == 0
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


class TestSimulateDecoyRoundTrip:
    def test_round_trip_matches_in_process(self, config_path, tmp_path):
        obs_path = tmp_path / "obs.json"
        assert (
            run_cli("simulate", "--config", config_path, "--seed", "11", "--out", str(obs_path))
            == 0
        )
        payload = json.loads(obs_path.read_text())
        assert payload["config"]["seed"] == 11

        bounds_path = tmp_path / "bounds.json"
        assert (
            run_cli(
                "decoy",
                "--config",
                config_path,
                "--observations",
                str(obs_path),
                "--out",
                str(bounds_path),
            )
            == 0
        )
        bounds = json.loads(bounds_path.read_text())
        assert set(bounds["bounds"]) == {"x", "x_err", "k"}
        for cls in bounds["bounds"].values():
            assert cls["single_lower"] <= cls["single_upper"] + 1e-9

        key_path = tmp_path / "key.json"
        assert (
            run_cli(
                "keyrate",
                "--config",
                config_path,
                "--observations",
                str(obs_path),
                "--out",
                str(key_path),
            )
            == 0
        )
        key = json.loads(key_path.read_text())

        # in-process recomputation from the emitted observations
        from bb84mm.channel_sim import sample_observations
        from bb84mm.decoy import Observations

        obs = Observations(
            n_x=tuple(payload["observations"]["n_x"]),
            n_k=tuple(payload["observations"]["n_k"]),
            e_x=tuple(payload["observations"]["e_x"]),
            e_z=payload["observations"]["e_z"],
        )
        ch = ChannelSpec.reference(
            loss_db=0.0, n_total=10**9, detector=DetectorSpec(0.7, 1e-6, 0.01, 0.01)
        )
        assert obs == sample_observations(ch, DecoyConfig.reference(), seed=11)
        deltas = closed_form_deltas(DetectorSpec(0.7, 1e-6, 0.01, 0.01))
        decision = key_length_decoy(
            obs,
            DecoyConfig.reference(),
            deltas,
            EpsilonBudget(),
            f_ec=1.16,
        )
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


class TestDecoyBareCountsFormat:
    def test_per_class_counts_accepted(self, config_path, tmp_path):
        obs_path = tmp_path / "counts.json"
        obs_path.write_text(
            json.dumps({"x": [9e5, 1e6, 1e5], "x_err": [900.0, 1200.0, 50000.0], "k": [8e5, 9e5, 9e4]})
        )
        out = tmp_path / "bounds.json"
        assert (
            run_cli("decoy", "--config", config_path, "--observations", str(obs_path), "--out", str(out))
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["bounds"]["x"]["single_lower"] > 0


class TestVerifyCommand:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run_cli(
            "verify", "--lemma", "smallpovm", "--trials", "5000", "--seed", "3", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"empirical", "bound", "sigma", "pass"}
        assert payload["pass"] is True


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path):
        assert run_cli("keyrate", "--config", str(tmp_path / "nope.json")) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli("keyrate", "--config", str(path)) == 2

    def test_bad_detector_field(self, tmp_path):
        cfg = dict(BASE_CONFIG, detector={"eta_det": 1.5, "d_det": 1e-6})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("delta", "--config", str(path)) == 2

    def test_missing_observations_file(self, config_path, tmp_path):
        assert (
            run_cli(
                "decoy",
                "--config",
                config_path,
                "--observations",
                str(tmp_path / "nope.json"),
            )
            == 2
        )

    def test_bad_scan_axis(self, tmp_path):
        cfg = dict(BASE_CONFIG, scan={"loss_db": "zero"})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("keyrate", "--config", str(path)) == 2

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_observations(self, config_path, tmp_path, capsys, bad):
        path = tmp_path / "obs.json"
        path.write_text('{"n_x": [%s, 1, 1], "n_k": [1, 1, 1], "e_x": [0, 0, 0], "e_z": 0}' % bad)
        assert run_cli("keyrate", "--config", config_path, "--observations", str(path)) == 2
        assert "n_x" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "true"])
    def test_bad_ec_efficiency(self, tmp_path, capsys, bad):
        text = json.dumps(dict(BASE_CONFIG, error_correction={"f_ec": 0.0}))
        path = tmp_path / "cfg.json"
        path.write_text(text.replace('"f_ec": 0.0', f'"f_ec": {bad}'))
        assert run_cli("keyrate", "--config", str(path)) == 2
        assert "f_ec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, value, where",
        [
            ("detector", {"eta_det": True}, "detector.eta_det"),
            ("detector", {"delta_eta": False}, "detector.delta_eta"),
            ("decoy", {"intensities": [0.9, 0.1, False]}, "decoy.intensities[2]"),
            ("channel", {"misalignment_deg": True}, "channel.misalignment_deg"),
            ("channel", {"n_total": True}, "channel.n_total"),
            ("scan", {"loss_db": [True, 0]}, "scan.loss_db[0]"),
        ],
    )
    def test_boolean_is_not_a_number(self, tmp_path, capsys, section, value, where):
        cfg = dict(BASE_CONFIG, **{section: dict(BASE_CONFIG[section], **value)})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("keyrate", "--config", str(path), "--out", str(tmp_path / "scan.csv")) == 2
        assert where in capsys.readouterr().err

    def test_boolean_observation_rejected(self, config_path, tmp_path, capsys):
        path = tmp_path / "obs.json"
        path.write_text('{"n_x": [10, 10, 10], "n_k": [10, 10, 10], "e_x": [0, 0, 0], "e_z": true}')
        assert run_cli("keyrate", "--config", config_path, "--observations", str(path)) == 2
        assert "e_z" in capsys.readouterr().err

    def test_derived_basis_probability_is_unknown(self, tmp_path, capsys):
        cfg = dict(BASE_CONFIG, channel=dict(BASE_CONFIG["channel"], p_x_alice=0.5))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("keyrate", "--config", str(path)) == 2
        assert "p_x_alice" in capsys.readouterr().err

    def test_out_of_range_verify_field(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"verify": {"constant_photons": 7}}))
        assert run_cli("verify", "--lemma", "decoy", "--config", str(path)) == 2
        assert "constant_photons" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv, field",
        [(["--nmax", "0"], "n_max"), (["--nmax", "65"], "n_max"), (["--seed", "-1"], "seed")],
    )
    def test_out_of_range_delta_option(self, config_path, capsys, argv, field):
        assert run_cli("delta", "--config", config_path, *argv) == 2
        assert field in capsys.readouterr().err

    def test_too_many_photon_levels(self, tmp_path, capsys):
        # Above ~170 photons no intensity has a representable emission
        # probability.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"verify": {"photon_levels": 400, "trials": 1000}}))
        assert run_cli("verify", "--lemma", "decoy", "--config", str(path)) == 2
        assert "photon_levels" in capsys.readouterr().err

    def test_infinite_round_count(self, tmp_path, capsys):
        cfg = dict(BASE_CONFIG, channel=dict(BASE_CONFIG["channel"], n_total=float("inf")))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("keyrate", "--config", str(path)) == 2
        assert "n_total" in capsys.readouterr().err

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


def test_console_entry_point(config_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bb84mm.cli", "delta", "--config", config_path, "--nmax", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert "closed_form" in payload


def test_import_leaves_scipy_stats_unloaded(config_path, tmp_path):
    # Also through a `delta` run that samples a tolerance box's interior.
    script = (
        "import sys; from bb84mm import cli; "
        f"cli.main(['delta', '--config', {config_path!r}, '--out', {str(tmp_path / 'delta.json')!r}]); "
        "print('scipy.stats' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert json.loads((tmp_path / "delta.json").read_text())["oracle"]["d1"] > 0
