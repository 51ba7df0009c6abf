"""Console entry point: JSON-configured scenario sweeps written as CSV.

Exit codes: 0 on success, 1 for configuration problems (bad flags, missing
or malformed config files, invalid settings), 2 for runtime failures
inside the simulation itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from importlib import resources
from pathlib import Path
from typing import List, Optional, Sequence, get_type_hints

from fdmimo.config import (
    SCENARIOS,
    AgingParams,
    ArchitectureConfig,
    CurvePoint,
    LinkBudget,
    PilotConfig,
    ScenarioConfig,
    TxImpairmentConfig,
    complexity_report,
)

CSV_HEADER = "power_dbm,scheme,mean_rate_bps_hz,std_err,trials"


class ConfigError(ValueError):
    """Anything wrong with the requested configuration."""


# JSON section -> (ScenarioConfig field, section type).
_SECTIONS = {
    "architecture": ("arch", ArchitectureConfig),
    "budget": ("budget", LinkBudget),
    "impairments": ("impairments", TxImpairmentConfig),
    "pilots": ("pilots", PilotConfig),
    "aging": ("aging", AgingParams),
}

# The bundled configs, one per scenario.
_CONFIGS = resources.files("fdmimo") / "configs"

# Top-level numeric fields of ScenarioConfig, by declared type.
_SCALARS = {
    name: typ for name, typ in get_type_hints(ScenarioConfig).items() if typ in (int, float)
}

_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}

# Integer fields size arrays, so they must fit numpy's index type, whose
# largest value is sys.maxsize (both are Py_ssize_t's); the seed only feeds
# SeedSequence, which takes any non-negative integer.
_INT_MAX = sys.maxsize


def _typed(key: str, value, typ):
    """`value` as a `typ` field, or ConfigError naming `key`.

    JSON is checked, not coerced: a bool is not a number, an int field
    takes only integral values (200.0 reads as 200) that fit an array index
    (the seed excepted), a float field takes no NaN and no integer beyond
    the float range, and a bool field takes only true or false.
    """
    if typ is bool or isinstance(value, bool):
        ok = typ is bool and isinstance(value, bool)
    elif typ is int:
        ok = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    elif typ is float:
        ok = isinstance(value, int) or (isinstance(value, float) and not math.isnan(value))
    else:
        ok = isinstance(value, typ)
    if not ok:
        raise ConfigError(f"{key!r} must be {_TYPE_NAMES[typ]}, got {value!r}")
    try:
        value = typ(value)
    except OverflowError:
        raise ConfigError(f"{key!r} must be a number within the float range") from None
    if typ is int and key != "seed" and abs(value) > _INT_MAX:
        raise ConfigError(f"{key!r} must be an integer of magnitude at most {_INT_MAX}")
    return value


def _check_keys(given: dict, allowed, where: str) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} in {where}; valid keys: {sorted(allowed)}"
        )


def _check_read(raw: dict, bundled: dict, scenario: str) -> None:
    """ConfigError naming the first key of `raw` that `bundled`, its scenario's, does not set."""
    for key, value in raw.items():
        unread = [] if key in bundled else [key]
        if not unread and key in _SECTIONS and isinstance(value, dict):
            unread = [f"{key}.{f}" for f in value if f not in bundled[key]]
        if unread:
            raise ConfigError(
                f"scenario {scenario!r} does not take {unread[0]!r}: it ignores or fixes it"
            )


def _build_section(name: str, payload, bundled: dict, cls):
    """Section `name`: `payload`'s fields merged over the bundled ones."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{name!r} must be a JSON object")
    types = get_type_hints(cls)
    payload = {k: _typed(f"{name}.{k}", v, types[k]) for k, v in {**bundled, **payload}.items()}
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name!r} settings: {exc}") from exc


def parse_config(source: str) -> ScenarioConfig:
    """Load a scenario config.  `source` is a filesystem path or the bare
    name of a bundled config such as `scenario_a`.

    The object is merged over the scenario's bundled config, section by
    section, so an omitted key takes the bundled value.  A key the bundled
    config does not set is one the scenario does not read, and a
    ConfigError.
    """
    path = _config_path(source)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also not UTF-8, past the digit or nesting limit
        raise ConfigError(f"{source}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    return _scenario_config(raw)


def default_scenario(code: str) -> ScenarioConfig:
    """Reference configuration of a scenario: its bundled config."""
    return _scenario_config({"scenario": code})


def _scenario_config(raw: dict) -> ScenarioConfig:
    """`raw`, a config object, merged over its scenario's bundled config."""
    if "scenario" not in raw:
        raise ConfigError(
            f"config must name a 'scenario' ({', '.join(SCENARIOS[:-1])} or {SCENARIOS[-1]})"
        )
    scenario = raw["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {', '.join(SCENARIOS)}, got {scenario!r}")

    _check_keys(raw, ["scenario", "schemes", "power_sweep_dbm", *_SCALARS, *_SECTIONS], "config")
    for key, (_, cls) in _SECTIONS.items():
        if isinstance(raw.get(key), dict):
            keys = [f.name for f in dataclasses.fields(cls) if f.init]  # a derived field is no key
            _check_keys(raw[key], keys, f"section {key!r}")
    bundled = json.loads((_CONFIGS / f"scenario_{scenario}.json").read_text(encoding="utf-8"))
    _check_read(raw, bundled, scenario)

    merged = {**bundled, **raw}
    fields: dict = {"scenario": scenario}
    for key, (attr, cls) in _SECTIONS.items():
        if key in merged:
            fields[attr] = _build_section(key, merged[key], bundled[key], cls)
    for key, typ in _SCALARS.items():
        if key in merged:
            fields[key] = _typed(key, merged[key], typ)
    sweep = merged["power_sweep_dbm"]
    if not isinstance(sweep, list) or not sweep:
        raise ConfigError("'power_sweep_dbm' must be a non-empty list of dBm values")
    fields["power_sweep_dbm"] = tuple(
        _typed(f"power_sweep_dbm[{i}]", p, float) for i, p in enumerate(sweep)
    )
    schemes = merged["schemes"]
    if not isinstance(schemes, list) or not all(isinstance(s, str) for s in schemes):
        raise ConfigError("'schemes' must be a list of scheme names")
    fields["schemes"] = tuple(schemes)
    try:
        return ScenarioConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _config_path(source: str):
    path = Path(source)
    if not path.is_file():
        path = _CONFIGS / (source if source.endswith(".json") else source + ".json")
        if "/" in source or not path.is_file():
            raise ConfigError(f"config file not found: {source}")
    return path


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


def _add_common(sub: argparse.ArgumentParser, overrides: bool = True) -> None:
    sub.add_argument(
        "--config",
        required=True,
        help="path to a JSON config, or the name of a bundled one (scenario_a..d)",
    )
    if not overrides:  # a command that reads none of the fields they set
        return
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
        updates["trials"] = _typed("--trials", args.trials, int)
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
    _add_common(p_cx, overrides=False)

    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command != "complexity":
            cfg = _apply_overrides(cfg, args)
    except (ConfigError, OSError) as exc:
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

    if args.out is not None and not Path(args.out).absolute().parent.is_dir():
        # Checked before the sweep, so a typo does not cost a whole run.
        print(f"fdmimo: config error: no directory for --out {args.out}", file=sys.stderr)
        return 1
    from fdmimo.link import run_scenario  # the simulator, and numpy, load for `run` alone

    try:
        points = run_scenario(cfg)
    except Exception as exc:  # noqa: BLE001  simulation faults map to exit 2
        print(f"fdmimo: runtime error: {exc}", file=sys.stderr)
        return 2
    text = format_csv(points)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(args.out).write_text(text)
    except OSError as exc:
        print(f"fdmimo: config error: cannot write --out: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out} ({len(points)} rows)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
