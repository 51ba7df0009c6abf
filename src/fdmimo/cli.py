"""Console entry point: JSON-configured scenario sweeps written as CSV.

Exit codes: 0 on success, 1 for configuration problems (bad flags, missing
or malformed config files, invalid settings), 2 for runtime failures
inside the simulation itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from importlib import resources
from pathlib import Path
from typing import List, Optional, Sequence

from fdmimo.beamforming import ArchitectureConfig
from fdmimo.channel import AgingParams
from fdmimo.estimation import PilotConfig
from fdmimo.impairments import TxImpairmentConfig
from fdmimo.link import (
    CurvePoint,
    LinkBudget,
    ScenarioConfig,
    complexity_report,
    default_scenario,
    run_scenario,
    thread_count,
)

CSV_HEADER = "power_dbm,scheme,mean_rate_bps_hz,std_err,trials"


class ConfigError(ValueError):
    """Anything wrong with the requested configuration."""


_SECTIONS = {
    "architecture": ("arch", ArchitectureConfig),
    "budget": ("budget", LinkBudget),
    "impairments": ("impairments", TxImpairmentConfig),
    "pilots": ("pilots", PilotConfig),
    "aging": ("aging", AgingParams),
}

_SCALARS = {
    "seed": int,
    "trials": int,
    "num_ue": int,
    "num_paths": int,
    "dl_ue_antennas": int,
    "ul_ue_antennas": int,
    "ul_streams": int,
    "kappa_si_db": float,
    "kappa_ue_db": float,
    "packet_symbols": int,
    "dl_data_fraction": float,
    "hd_pilot_fraction": float,
}


def _check_keys(given: dict, allowed, where: str) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} in {where}; valid keys: {sorted(allowed)}"
        )


def _build_section(name: str, cls, payload: dict, current):
    if not isinstance(payload, dict):
        raise ConfigError(f"{name!r} must be a JSON object")
    names = [f.name for f in dataclasses.fields(cls)]
    _check_keys(payload, names, f"section {name!r}")
    try:
        if current is None:
            return cls(**payload)
        return dataclasses.replace(current, **payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name!r} settings: {exc}") from exc


def parse_config(source: str) -> ScenarioConfig:
    """Load a scenario config, filling unspecified fields from the
    scenario's reference defaults.  `source` is a filesystem path or the
    bare name of a bundled config such as `scenario_a`."""
    text = _read_config_text(source)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    if "scenario" not in raw:
        raise ConfigError("config must name a 'scenario' (a, b, c or d)")
    scenario = raw["scenario"]
    if scenario not in ("a", "b", "c", "d"):
        raise ConfigError(f"scenario must be one of a, b, c, d, got {scenario!r}")

    top = ["scenario", "schemes", "power_sweep_dbm", *_SCALARS, *_SECTIONS]
    _check_keys(raw, top, "config")

    cfg = default_scenario(scenario)
    updates: dict = {}
    for key, (attr, cls) in _SECTIONS.items():
        if key not in raw:
            continue
        if key == "aging" and raw[key] is None:
            updates[attr] = None
        else:
            updates[attr] = _build_section(key, cls, raw[key], getattr(cfg, attr))
    for key, typ in _SCALARS.items():
        if key in raw:
            try:
                updates[key] = typ(raw[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key!r} must be a {typ.__name__}") from exc
    if "power_sweep_dbm" in raw:
        sweep = raw["power_sweep_dbm"]
        if not isinstance(sweep, list) or not sweep:
            raise ConfigError("'power_sweep_dbm' must be a non-empty list of dBm values")
        try:
            updates["power_sweep_dbm"] = tuple(float(p) for p in sweep)
        except (TypeError, ValueError) as exc:
            raise ConfigError("'power_sweep_dbm' entries must be numbers") from exc
    if "schemes" in raw:
        schemes = raw["schemes"]
        if not isinstance(schemes, list) or not all(isinstance(s, str) for s in schemes):
            raise ConfigError("'schemes' must be a list of scheme names")
        updates["schemes"] = tuple(schemes)
    try:
        return dataclasses.replace(cfg, **updates)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _read_config_text(source: str) -> str:
    path = Path(source)
    if path.is_file():
        return path.read_text()
    name = source if source.endswith(".json") else source + ".json"
    if "/" not in source:
        bundled = resources.files("fdmimo").joinpath("configs", name)
        if bundled.is_file():
            return bundled.read_text()
    raise ConfigError(f"config file not found: {source}")


def format_csv(points: Sequence[CurvePoint]) -> str:
    lines = [CSV_HEADER]
    for c in sorted(points, key=lambda c: (c.scheme, c.power_dbm)):
        lines.append(
            "%.6g,%s,%.6g,%.6g,%d"
            % (c.power_dbm, c.scheme, c.mean_rate_bps_hz, c.std_err, c.trials)
        )
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; bad flags are a config
    # problem here, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--config",
        required=True,
        help="path to a JSON config, or the name of a bundled one (scenario_a..d)",
    )
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--trials", type=int, default=None, help="override the trial count")
    sub.add_argument(
        "--schemes",
        default=None,
        help="comma-separated scheme subset, e.g. proposed,hd",
    )


def _apply_overrides(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    updates: dict = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.schemes is not None:
        names = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
        if not names:
            raise ConfigError("--schemes must name at least one scheme")
        updates["schemes"] = names
    if not updates:
        return cfg
    try:
        return dataclasses.replace(cfg, **updates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv: Optional[List[str]] = None) -> int:
    parser = _Parser(prog="fdmimo", description="full-duplex massive MIMO link simulator")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", parents=[], help="run the configured sweep, emit CSV")
    _add_common(p_run)
    p_run.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    p_val = subs.add_parser("validate", help="check a config and print a summary")
    _add_common(p_val)

    p_cx = subs.add_parser("complexity", help="print analog hardware counts as JSON")
    _add_common(p_cx)

    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(parse_config(args.config), args)
    except ConfigError as exc:
        print(f"fdmimo: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"fdmimo: config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(
            f"ok: scenario {cfg.scenario}, schemes {', '.join(cfg.schemes)}, "
            f"{len(cfg.power_sweep_dbm)} power points, {cfg.trials} trials, seed {cfg.seed}"
        )
        return 0

    if args.command == "complexity":
        print(json.dumps(complexity_report(cfg.arch), indent=2, sort_keys=True))
        return 0

    try:
        thread_count()
    except ValueError as exc:
        print(f"fdmimo: config error: {exc}", file=sys.stderr)
        return 1
    try:
        points = run_scenario(cfg)
    except Exception as exc:  # noqa: BLE001  simulation faults map to exit 2
        print(f"fdmimo: runtime error: {exc}", file=sys.stderr)
        return 2
    text = format_csv(points)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(points)} rows)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
