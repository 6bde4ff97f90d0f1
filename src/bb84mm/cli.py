"""Command-line front end.

Subcommands: ``keyrate`` (loss scan to CSV, or a single decision from an
observations file), ``delta`` (closed-form and oracle mismatch metrics),
``decoy`` (photon-number bounds from an observations file), ``simulate``
(honest-channel observations), ``verify`` (Monte Carlo lemma checks).

All inputs come from a JSON config file; every output embeds the fully
resolved configuration for reproducibility.  Every subcommand checks the
keys of every config section against the section's owner when it reads the
file, so an unknown section or key ('section.key') is an error even in a
section the subcommand does not read; values are checked by the subcommands
that build the section.  Exit codes: 0 success, 2 configuration error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
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
    _reject_booleans(data, path, "")
    return data


def _reject_booleans(value: Any, path: str, where: str) -> None:
    """No config or observations field is a boolean, and Python would read
    true/false as the numbers 1/0, so any JSON boolean is an error."""
    if isinstance(value, bool):
        raise ConfigError(f"{path}: {where} must not be a boolean, got {json.dumps(value)}")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_booleans(item, path, f"{where}.{key}" if where else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_booleans(item, path, f"{where}[{i}]")


# Each config section and its owner: the record that builds it, or the
# keys of a section that no record owns.  The keys of a record are its
# fields, apart from the two channel fields the CLI supplies.
_SECTIONS = {
    "detector": DetectorSpec, "decoy": DecoyConfig, "channel": ChannelSpec,
    "epsilons": EpsilonBudget, "verify": TrialConfig,
    "error_correction": {"f_ec"}, "scan": {"loss_db"},
}
_SUPPLIED = {"transmissivity", "detector"}  # from scan.loss_db and the detector section


def _load_config(path: str) -> dict:
    """The config at ``path``, the keys of every section checked against its
    owner whichever sections the subcommand reads; values are checked by the
    subcommands that build the section."""
    cfg = _load_json(path)
    for name, sec in cfg.items():
        if name not in _SECTIONS:
            raise ConfigError(f"{path}: unknown config section '{name}'")
        if not isinstance(sec, dict):
            raise ConfigError(f"{path}: config section '{name}' must be an object")
        owner = _SECTIONS[name]
        keys = owner if isinstance(owner, set) else {f.name for f in dataclasses.fields(owner)} - _SUPPLIED
        unknown = sorted(set(sec) - keys)
        if unknown:
            raise ConfigError(f"{path}: unknown key '{name}.{unknown[0]}'")
    return cfg


def _build(cls, record: dict, path: str):
    """cls from a JSON record, its arrays as tuples."""
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in record.items()}
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _record(cfg: dict, name: str, required: bool = True, **extra):
    """Section ``name`` with ``extra`` merged over it, built by its owner (a
    key-set section stays a dict)."""
    if required and name not in cfg:
        raise ConfigError(f"missing config section '{name}'")
    owner, record = _SECTIONS[name], {**cfg.get(name, {}), **extra}
    return record if isinstance(owner, set) else _build(owner, record, name)


def _transmissivity(loss_db: float) -> float:
    return 10.0 ** (-loss_db / 10.0)


def _losses(cfg: dict) -> list[float]:
    losses = _record(cfg, "scan").get("loss_db")
    if not isinstance(losses, list) or not all(isinstance(x, (int, float)) for x in losses):
        raise ConfigError("scan.loss_db must be a list of numbers")
    for i, x in enumerate(losses):
        try:
            ok = x >= 0.0 and _transmissivity(x) > 0.0
        except OverflowError:  # an integer too large for a float
            ok = False
        if not ok:
            raise ConfigError(
                f"scan.loss_db[{i}] must be a loss in dB >= 0 whose transmissivity "
                f"10^(-loss/10) is > 0, got {x!r}"
            )
    return [float(x) for x in losses]


def _channel(cfg: dict, loss_db: float) -> ChannelSpec:
    return _record(
        cfg, "channel", transmissivity=_transmissivity(loss_db), detector=_record(cfg, "detector")
    )


def _f_ec(cfg: dict) -> float:
    f_ec = _record(cfg, "error_correction", required=False).get("f_ec", DEFAULT_EC_EFFICIENCY)
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


def _observations(path: str) -> Observations:
    """The record at the top level of the file, or under "observations" as
    ``simulate`` writes it."""
    record = _load_json(path)
    record = record.get("observations", record)
    if not isinstance(record, dict):
        raise ConfigError(f"{path}: observations must be an object")
    return _build(Observations, record, path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_keyrate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    decoy_cfg = _record(cfg, "decoy")
    budget = _record(cfg, "epsilons", required=False)
    deltas = closed_form_deltas(_record(cfg, "detector"))
    f_ec = _f_ec(cfg)

    if args.observations:
        obs = _observations(args.observations)
        decision = key_length_decoy(obs, decoy_cfg, deltas, budget, f_ec=f_ec)
        _emit_json(
            {
                "config": _resolved(cfg),
                **dataclasses.asdict(decision),
                "security_parameter": budget.security_parameter(decoy=True),
            },
            args.out,
        )
        return EXIT_OK

    losses = _losses(cfg)
    lines = ["# config=" + json.dumps(_resolved(cfg), sort_keys=True), CSV_HEADER]
    for loss in losses:
        ch = _channel(cfg, loss)
        obs = expected_observations(ch, decoy_cfg)
        decision = key_length_decoy(obs, decoy_cfg, deltas, budget, f_ec=f_ec)
        rate = decision.key_length / ch.n_total
        lines.append(
            f"{_fmt(loss)},{_fmt(rate)},{decision.key_length},{_fmt(decision.phase_bound)},"
            f"{_fmt(deltas.delta1)},{_fmt(deltas.delta2)}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_delta(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    detector = _record(cfg, "detector")
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
    cfg = _load_config(args.config)
    decoy_cfg = _record(cfg, "decoy")
    eps_d_sq = _record(cfg, "epsilons", required=False).eps_at_d ** 2
    obs = _observations(args.observations)
    classes = {"x": obs.counts_x(), "x_err": obs.counts_x_err(), "k": obs.counts_k()}
    names = ("vacuum_lower", "single_lower", "single_upper")
    bounds = {
        name: dict(zip(names, decoy_bounds(counts, decoy_cfg, eps_d_sq)))
        for name, counts in classes.items()
    }
    _emit_json(
        {"config": _resolved(cfg, observations=dataclasses.asdict(obs)), "bounds": bounds},
        args.out,
    )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    decoy_cfg = _record(cfg, "decoy")
    losses = _losses(cfg) if "scan" in cfg else [0.0]
    if not losses:
        raise ConfigError("scan.loss_db is empty: simulate runs at its first entry")
    loss = losses[0]
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
            "observations": dataclasses.asdict(obs),
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
    cfg = _load_config(args.config) if args.config else {}
    flags = {"trials": args.trials, "seed": args.seed}
    trial_cfg = _record(cfg, "verify", required=False, **{k: v for k, v in flags.items() if v is not None})
    verifier = _VERIFIERS[args.lemma]
    extra = (_record(cfg, "decoy"),) if args.lemma == "decoy" and "decoy" in cfg else ()
    start = time.perf_counter()
    try:
        report = verifier(trial_cfg, *extra)
    except ValueError as exc:
        raise ConfigError(f"verify: {exc}") from exc
    payload = report.as_dict()
    payload["wall_s"] = time.perf_counter() - start
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
