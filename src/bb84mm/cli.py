"""Command-line front end.

Subcommands: ``keyrate`` (loss scan to CSV, or a single decision from an
observations file), ``delta`` (closed-form and oracle mismatch metrics),
``decoy`` (photon-number bounds from an observations file), ``simulate``
(honest-channel observations), ``verify`` (Monte Carlo lemma checks).

All inputs come from a JSON config file; every output embeds the fully
resolved configuration for reproducibility.  Every subcommand builds every
config section when it reads the file, so an unknown section, an unknown or
missing key, or a bad value is an error naming 'section.key' (or
'section.key[i]') even in a section the subcommand does not read.
``verify --lemma decoy`` reads the config's ``decoy`` section when it has
one, and the reference decoy otherwise.

``main`` is the one writer of every output.  It reads the config once and
an ``--observations`` file into ``built["observations"]``, runs the
subcommand, which returns ``(inputs, result)``, and writes one envelope to
stdout or ``--out``: ``{"config": {**config, **inputs}, **result}`` as JSON,
with the observations record under ``config.observations``, or the scan's
CSV rows below a ``# config=`` line.  The JSON is standard: a result that
holds inf or NaN is a numeric failure naming the field.  A run that ends in
an error writes nothing.

Exit codes: 0 success, 2 bad input, 3 numeric failure or a failed lemma
check (``lemma check failed: <lemma>`` on stderr, after the report is
written).  ``main`` is the one place a ``ValueError`` becomes exit 2: any
bad value in a config file, a flag or an observations file, a file that
cannot be read as JSON, or an ``--out`` path that cannot be written, exits 2
with an ``input error:`` message naming the field or the path.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import sys
import time

from bb84mm.channel_sim import ChannelSpec, expected_observations, sample_observations
from bb84mm.decoy import DecoyConfig, Observations, decoy_bounds
from bb84mm.detector_model import DetectorSpec, closed_form_deltas, oracle_deltas
from bb84mm.keyrate import EpsilonBudget, _ec_efficiency, key_length_decoy
from bb84mm.mc_verify import (
    TrialConfig,
    verify_decoy_hoeffding,
    verify_freq_transfer,
    verify_serfling,
    verify_small_povm,
)
from bb84mm.stat_bounds import _checked_number

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

CSV_HEADER = "loss_db,key_rate_per_pulse,key_length,phase_bound,delta1,delta2"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _json(value: dict, **kwargs) -> str:
    """``value`` as standard JSON with sorted keys.  JSON has no token for
    inf or NaN, so a non-finite number is an ArithmeticError naming it."""
    try:
        return json.dumps(value, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise ArithmeticError(f"{_non_finite(value)} is not finite; JSON cannot write it") from exc


def _non_finite(value, name: str = "") -> str | None:
    """The name ('key.key[i]') of the first non-finite float in ``value``."""
    if isinstance(value, float):
        return None if math.isfinite(value) else name
    if isinstance(value, dict):
        named = ((f"{name}.{k}" if name else k, v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        named = ((f"{name}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for child, v in named:
        found = _non_finite(v, child)
        if found:
            return found
    return None


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be an object")
    return data


def _transmissivity(loss_db: float) -> float:
    return 10.0 ** (-loss_db / 10.0)


def _scan(loss_db: list) -> list[float]:
    """The losses of ``scan.loss_db``: each a number >= 0 dB whose
    transmissivity is > 0."""
    if not isinstance(loss_db, list):
        raise ValueError("loss_db must be a list of numbers")
    for i, x in enumerate(loss_db):
        if _transmissivity(_checked_number(f"loss_db[{i}]", x, 0.0, math.inf)) == 0.0:
            raise ValueError(
                f"loss_db[{i}] must be a loss in dB >= 0 whose transmissivity "
                f"10^(-loss/10) is > 0, got {x!r}"
            )
    return [float(x) for x in loss_db]


# Each config section and its owner, which builds it from the section's
# keys: a record, or a function for the sections no record owns.
_SECTIONS = {
    "detector": DetectorSpec, "decoy": DecoyConfig, "channel": ChannelSpec,
    "epsilons": EpsilonBudget, "verify": TrialConfig,
    "error_correction": _ec_efficiency, "scan": _scan,
}


def _load_config(path: str | None) -> tuple[dict, dict]:
    """The config at ``path`` (none: empty) and every section it holds,
    built by its owner, so a file is valid or invalid for every subcommand
    alike.  The channel is built at transmissivity 1 with the file's
    detector; a section absent from the file is built from its owner's
    defaults when every key has one."""
    cfg = _load_json(path) if path else {}
    for name, sec in cfg.items():
        if name not in _SECTIONS:
            raise ValueError(f"{path}: unknown config section '{name}'")
        if not isinstance(sec, dict):
            raise ValueError(f"{path}: config section '{name}' must be an object")
    built = {}
    for name, owner in _SECTIONS.items():
        supplied = {}
        if name == "channel" and name in cfg:
            if "detector" not in built:
                raise ValueError(f"{path}: missing config section 'detector' for the channel")
            supplied = {"transmissivity": 1.0, "detector": built["detector"]}
        if name not in cfg and any(_keys(owner, supplied).values()):
            continue  # absent, and some key has no default
        built[name] = _build(owner, cfg.get(name, {}), path, name, **supplied)
    return cfg, built


def _keys(owner, supplied: dict) -> dict[str, bool]:
    """Each key of ``owner`` apart from ``supplied``, and whether it is
    required (has no default)."""
    params = inspect.signature(owner).parameters.values()
    return {p.name: p.default is p.empty for p in params if p.name not in supplied}


def _build(owner, record: dict, path: str, section: str = "", **supplied):
    """``owner`` built from a JSON record and the ``supplied`` arguments,
    after checking the record's keys against the owner's parameters; an
    error names a field as 'section.key', or 'key' when there is no
    section."""
    prefix = f"{section}." if section else ""
    keys = _keys(owner, supplied)
    unknown = [k for k in record if k not in keys]
    if unknown:
        raise ValueError(f"{path}: unknown key '{prefix}{unknown[0]}'")
    missing = [k for k, required in keys.items() if required and k not in record]
    if missing:
        raise ValueError(f"{path}: missing key '{prefix}{missing[0]}'")
    try:
        return owner(**record, **supplied)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}" if section else f"{path}: {exc}") from exc


def _section(built: dict, name: str):
    if name not in built:
        raise ValueError(f"missing config section '{name}'")
    return built[name]


def _observations(path: str) -> Observations:
    """The record at the top level of the file, or under "observations" as
    ``simulate`` writes it."""
    record = _load_json(path)
    record = record.get("observations", record)
    if not isinstance(record, dict):
        raise ValueError(f"{path}: observations must be an object")
    return _build(Observations, record, path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_keyrate(args: argparse.Namespace, built: dict) -> tuple[dict, dict | list[str]]:
    decoy_cfg = _section(built, "decoy")
    budget, f_ec = built["epsilons"], built["error_correction"]
    deltas = closed_form_deltas(_section(built, "detector"))

    if "observations" in built:
        decision = key_length_decoy(built["observations"], decoy_cfg, deltas, budget, f_ec=f_ec)
        return {}, {
            **dataclasses.asdict(decision),
            "security_parameter": budget.security_parameter(decoy=True),
        }

    losses, channel = _section(built, "scan"), _section(built, "channel")
    rows = []
    for loss in losses:
        ch = dataclasses.replace(channel, transmissivity=_transmissivity(loss))
        obs = expected_observations(ch, decoy_cfg)
        decision = key_length_decoy(obs, decoy_cfg, deltas, budget, f_ec=f_ec)
        rate = decision.key_length / ch.n_total
        rows.append(
            f"{_fmt(loss)},{_fmt(rate)},{decision.key_length},{_fmt(decision.phase_bound)},"
            f"{_fmt(deltas.delta1)},{_fmt(deltas.delta2)}"
        )
    return {}, rows


def cmd_delta(args: argparse.Namespace, built: dict) -> tuple[dict, dict]:
    detector = _section(built, "detector")
    closed = closed_form_deltas(detector)
    oracle = oracle_deltas(detector, n_max=args.nmax, seed=args.seed)
    return {"nmax": args.nmax, "seed": args.seed}, {
        "closed_form": {"d1": closed.delta1, "d2": closed.delta2},
        "oracle": {"d1": oracle.delta1, "d2": oracle.delta2},
    }


def cmd_decoy(args: argparse.Namespace, built: dict) -> tuple[dict, dict]:
    decoy_cfg = _section(built, "decoy")
    eps_d_sq = built["epsilons"].eps_at_d ** 2
    obs = built["observations"]
    classes = {"x": obs.counts_x(), "x_err": obs.counts_x_err(), "k": obs.counts_k()}
    names = ("vacuum_lower", "single_lower", "single_upper")
    bounds = {
        name: dict(zip(names, decoy_bounds(counts, decoy_cfg, eps_d_sq)))
        for name, counts in classes.items()
    }
    return {}, {"bounds": bounds}


def cmd_simulate(args: argparse.Namespace, built: dict) -> tuple[dict, dict]:
    decoy_cfg = _section(built, "decoy")
    losses = built.get("scan", [0.0])
    if not losses:
        raise ValueError("scan.loss_db is empty: simulate runs at its first entry")
    loss = losses[0]
    ch = dataclasses.replace(_section(built, "channel"), transmissivity=_transmissivity(loss))
    if args.seed is None:
        obs = expected_observations(ch, decoy_cfg)
        mode = "expected"
    else:
        obs = sample_observations(ch, decoy_cfg, seed=args.seed)
        mode = "sampled"
    return {"loss_db": loss, "seed": args.seed, "mode": mode}, {"observations": dataclasses.asdict(obs)}


_VERIFIERS = {
    "serfling": verify_serfling,
    "smallpovm": verify_small_povm,
    "transfer": verify_freq_transfer,
    "decoy": verify_decoy_hoeffding,
}


def cmd_verify(args: argparse.Namespace, built: dict) -> tuple[dict, dict]:
    flags = {k: v for k, v in {"trials": args.trials, "seed": args.seed}.items() if v is not None}
    trial_cfg = dataclasses.replace(built["verify"], **flags)
    verifier = _VERIFIERS[args.lemma]
    extra = (built["decoy"],) if args.lemma == "decoy" and "decoy" in built else ()
    start = time.perf_counter()
    try:
        report = verifier(trial_cfg, *extra).as_dict()
    except ValueError as exc:  # a verifier checks the verify fields it reads
        raise ValueError(f"verify.{exc}") from exc
    report["wall_s"] = time.perf_counter() - start
    return {"verify": dataclasses.asdict(trial_cfg), "lemma": args.lemma}, report


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
        cfg, built = _load_config(args.config)
        if getattr(args, "observations", None):
            built["observations"] = _observations(args.observations)
            cfg = {**cfg, "observations": dataclasses.asdict(built["observations"])}
        inputs, result = args.func(args, built)
        cfg = {**cfg, **inputs}
        if isinstance(result, list):
            text = "\n".join(["# config=" + _json(cfg), CSV_HEADER, *result])
        else:
            text = _json({"config": cfg, **result}, indent=2)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise ValueError(f"cannot write {args.out}: {exc}") from exc
        else:
            sys.stdout.write(text + "\n")
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if "lemma" in inputs and not result["pass"]:
        print(f"lemma check failed: {inputs['lemma']}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
