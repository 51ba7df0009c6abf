"""Shared fixtures: the JSON keys each scenario's config accepts."""

import dataclasses
import json

import pytest

from fdmimo.cli import ConfigError, parse_config
from fdmimo.link import default_scenario

# JSON section -> ScenarioConfig field.
SECTIONS = {
    "architecture": "arch",
    "budget": "budget",
    "impairments": "impairments",
    "pilots": "pilots",
    "aging": "aging",
}


def _every_key():
    """Every JSON key of any scenario, a section's fields as 'section.field'."""
    full = default_scenario("c")  # the only scenario with every section set
    keys = []
    for field in dataclasses.fields(full):
        section = next((k for k, attr in SECTIONS.items() if attr == field.name), None)
        if section is None:
            keys.append(field.name)
        else:
            keys += [f"{section}.{f.name}" for f in dataclasses.fields(getattr(full, field.name))]
    return keys


EVERY_KEY = _every_key()


def config_json(cfg, keys):
    """A config object that sets each of `keys` to its value in `cfg`; a
    field of a section the scenario leaves unset takes scenario c's value."""
    out = {"scenario": cfg.scenario}
    for key in keys:
        section, _, name = key.partition(".")
        if name:
            attr = SECTIONS[section]
            fields = getattr(cfg, attr) or getattr(default_scenario("c"), attr)
            out.setdefault(section, {})[name] = getattr(fields, name)
        else:
            value = getattr(cfg, key)
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


@pytest.fixture(scope="session")
def accepted_keys(tmp_path_factory):
    """Scenario -> the keys `parse_config` accepts, found by setting each key
    alone to the scenario's own default value."""
    path = tmp_path_factory.mktemp("keys") / "cfg.json"
    out = {}
    for code in "abcd":
        cfg = default_scenario(code)
        out[code] = []
        for key in EVERY_KEY:
            path.write_text(json.dumps(config_json(cfg, [key])))
            try:
                parse_config(str(path))
            except ConfigError as exc:
                assert "does not take" in str(exc), exc
            else:
                out[code].append(key)
    return out
