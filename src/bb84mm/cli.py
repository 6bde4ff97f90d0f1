"""Command-line front end.

Subcommands: ``keyrate`` (loss scan to CSV, or a single decision from an
observations file), ``delta`` (closed-form and oracle mismatch metrics),
``decoy`` (photon-number bounds from an observations file), ``simulate``
(honest-channel observations), ``verify`` (Monte Carlo lemma checks).

All inputs come from a JSON config file; every output embeds the fully
resolved configuration for reproducibility.  Exit codes: 0 success, 2
configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any

from bb84mm.channel_sim import ChannelSpec, expected_observations, sample_observations
from bb84mm.decoy import DecoyConfig, Observations, decoy_bounds
from bb84mm.detector_model import DetectorSpec, closed_form_deltas, oracle_deltas
from bb84mm.keyrate import (
    DEFAULT_EC_EFFICIENCY,
    EpsilonBudget,
    key_length_decoy,
    lambda_ec_default,
)
from bb84mm.mc_verify import (
    TrialConfig,
    verify_decoy_hoeffding,
    verify_freq_transfer,
    verify_serfling,
    verify_small_povm,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CSV_HEADER = "loss_db,key_rate_per_pulse,key_length,phase_bound,delta1,delta2"


class ConfigError(Exception):
    """Malformed or out-of-range configuration; maps to exit code 2."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data


def _section(cfg: dict, name: str, required: bool = True) -> dict:
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"missing config section '{name}'")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    return sec


def _build(cls, section: dict, path: str, **extra):
    try:
        return cls(**section, **extra)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _detector(cfg: dict) -> DetectorSpec:
    return _build(DetectorSpec, _section(cfg, "detector"), "detector")


def _decoy_config(cfg: dict) -> DecoyConfig:
    sec = _section(cfg, "decoy")
    sec = {k: tuple(v) if isinstance(v, list) else v for k, v in sec.items()}
    return _build(DecoyConfig, sec, "decoy")


def _budget(cfg: dict) -> EpsilonBudget:
    return _build(EpsilonBudget, _section(cfg, "epsilons", required=False), "epsilons")


def _channel(cfg: dict, loss_db: float) -> ChannelSpec:
    sec = dict(_section(cfg, "channel"))
    sec.pop("loss_db", None)
    return _build(
        ChannelSpec,
        sec,
        "channel",
        transmissivity=10.0 ** (-loss_db / 10.0),
        detector=_detector(cfg),
    )


def _f_ec(cfg: dict) -> float:
    sec = _section(cfg, "error_correction", required=False)
    f_ec = sec.get("f_ec", DEFAULT_EC_EFFICIENCY)
    try:
        lambda_ec_default(0, 0.0, f_ec)  # validates f_ec
    except ValueError as exc:
        raise ConfigError(f"error_correction: {exc}") from exc
    return float(f_ec)


def _resolved(cfg: dict, **extra: Any) -> dict:
    out = json.loads(json.dumps(cfg))
    out.update(extra)
    return out


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


# ---------------------------------------------------------------------------
# observation files
# ---------------------------------------------------------------------------


def _observations_from_file(path: str) -> Observations:
    """Accepts either the full observation record (n_x/n_k/e_x/e_z, as
    emitted by ``simulate``) or bare per-intensity class counts
    (x/x_err/k); the latter suffices for the decoy bounds."""
    data = _load_json(path)
    if "observations" in data:
        data = data["observations"]
    try:
        if "x" in data and "n_x" not in data:
            n_x = tuple(float(v) for v in data["x"])
            n_err = tuple(float(v) for v in data["x_err"])
            e_x = tuple(err / n if n > 0 else 0.0 for n, err in zip(n_x, n_err))
            return Observations(
                n_x=n_x, n_k=tuple(float(v) for v in data["k"]), e_x=e_x,
                e_z=float(data.get("e_z", 0.0)),
            )
        return Observations(
            n_x=tuple(data["n_x"]),
            n_k=tuple(data["n_k"]),
            e_x=tuple(data["e_x"]),
            e_z=float(data["e_z"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad observations record: {exc}") from exc


def _observations_payload(obs: Observations) -> dict:
    return {
        "n_x": list(obs.n_x),
        "n_k": list(obs.n_k),
        "e_x": list(obs.e_x),
        "e_z": obs.e_z,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_keyrate(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    decoy_cfg = _decoy_config(cfg)
    budget = _budget(cfg)
    detector = _detector(cfg)
    deltas = closed_form_deltas(detector)
    f_ec = _f_ec(cfg)

    if args.observations:
        obs = _observations_from_file(args.observations)
        decision = key_length_decoy(obs, decoy_cfg, deltas, budget, f_ec=f_ec)
        _emit_json(
            {
                "config": _resolved(cfg),
                "key_length": decision.key_length,
                "lambda_ec": decision.lambda_ec,
                "phase_bound": decision.phase_bound,
                "feasible": decision.feasible,
                "security_parameter": budget.security_parameter(decoy=True),
            },
            args.out,
        )
        return EXIT_OK

    scan = _section(cfg, "scan")
    losses = scan.get("loss_db")
    if not isinstance(losses, list) or not all(isinstance(x, (int, float)) for x in losses):
        raise ConfigError("scan.loss_db must be a list of numbers")

    lines = ["# config=" + json.dumps(_resolved(cfg), sort_keys=True), CSV_HEADER]
    for loss in losses:
        ch = _channel(cfg, float(loss))
        obs = expected_observations(ch, decoy_cfg)
        decision = key_length_decoy(obs, decoy_cfg, deltas, budget, f_ec=f_ec)
        rate = decision.key_length / ch.n_total
        lines.append(
            ",".join(
                [
                    _fmt(float(loss)),
                    _fmt(rate),
                    str(decision.key_length),
                    _fmt(decision.phase_bound),
                    _fmt(deltas.delta1),
                    _fmt(deltas.delta2),
                ]
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_delta(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    detector = _detector(cfg)
    closed = closed_form_deltas(detector)
    try:
        oracle = oracle_deltas(detector, n_max=args.nmax, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(f"delta: {exc}") from exc
    _emit_json(
        {
            "config": _resolved(cfg, nmax=args.nmax, seed=args.seed),
            "closed_form": {"d1": closed.delta1, "d2": closed.delta2},
            "oracle": {"d1": oracle.delta1, "d2": oracle.delta2},
        },
        args.out,
    )
    return EXIT_OK


def cmd_decoy(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    decoy_cfg = _decoy_config(cfg)
    eps_d_sq = _budget(cfg).eps_at_d ** 2
    obs = _observations_from_file(args.observations)
    classes = {
        "x": obs.counts_x(),
        "x_err": obs.counts_x_err(),
        "k": obs.counts_k(),
    }
    names = ("vacuum_lower", "single_lower", "single_upper")
    bounds = {
        name: dict(zip(names, decoy_bounds(counts, decoy_cfg, eps_d_sq)))
        for name, counts in classes.items()
    }
    _emit_json(
        {
            "config": _resolved(cfg, observations=_observations_payload(obs)),
            "bounds": bounds,
        },
        args.out,
    )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    decoy_cfg = _decoy_config(cfg)
    scan = _section(cfg, "scan", required=False)
    losses = scan.get("loss_db", [0.0])
    loss = float(losses[0]) if isinstance(losses, list) and losses else 0.0
    ch = _channel(cfg, loss)
    if args.seed is None:
        obs = expected_observations(ch, decoy_cfg)
        mode = "expected"
    else:
        try:
            obs = sample_observations(ch, decoy_cfg, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"simulate: {exc}") from exc
        mode = "sampled"
    _emit_json(
        {
            "config": _resolved(cfg, loss_db=loss, seed=args.seed, mode=mode),
            "observations": _observations_payload(obs),
        },
        args.out,
    )
    return EXIT_OK


_VERIFIERS = {
    "serfling": verify_serfling,
    "smallpovm": verify_small_povm,
    "transfer": verify_freq_transfer,
    "decoy": verify_decoy_hoeffding,
}


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config) if args.config else {}
    section = _section(cfg, "verify", required=False)
    overrides = {k: v for k, v in section.items()}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    trial_cfg = _build(TrialConfig, overrides, "verify")
    verifier = _VERIFIERS[args.lemma]
    extra = (_decoy_config(cfg),) if args.lemma == "decoy" and "decoy" in cfg else ()
    try:
        report = verifier(trial_cfg, *extra)
    except ValueError as exc:
        raise ConfigError(f"verify: {exc}") from exc
    payload = report.as_dict()
    payload["config"] = _resolved(cfg, verify=dataclasses.asdict(trial_cfg), lemma=args.lemma)
    _emit_json(payload, args.out)
    return EXIT_OK if report.passed else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bb84mm",
        description="Finite-size decoy-state BB84 key rates under detector mismatch",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
        p.add_argument("--config", required=config_required, help="JSON config file")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("keyrate", help="key-rate scan over channel loss (CSV)")
    common(p)
    p.add_argument(
        "--observations", default=None, help="observations JSON: single key decision instead of a scan"
    )
    p.set_defaults(func=cmd_keyrate)

    p = sub.add_parser("delta", help="mismatch metrics, closed form and oracle")
    common(p)
    p.add_argument("--nmax", type=int, default=10, help="photon-block cutoff for the oracle")
    p.add_argument("--seed", type=int, default=0, help="seed for interior box samples")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("decoy", help="photon-number bounds from observations")
    common(p)
    p.add_argument("--observations", required=True, help="observations JSON file")
    p.set_defaults(func=cmd_decoy)

    p = sub.add_parser("simulate", help="honest-channel observations")
    common(p)
    p.add_argument(
        "--seed", type=int, default=None, help="sample a run (omit for exact expectations)"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="Monte Carlo check of one concentration lemma")
    common(p, config_required=False)
    p.add_argument("--lemma", required=True, choices=sorted(_VERIFIERS))
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
