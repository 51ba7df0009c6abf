"""Shared fixtures: the JSON keys each scenario's config accepts, those
it does not read, a recorder of the calls a run makes, and the OpenBLAS
thread count of the test process."""

import dataclasses
import json

import pytest

from fdmimo import trials
from fdmimo.cli import ConfigError, default_scenario, parse_config

# JSON section -> ScenarioConfig field.
SECTIONS = {
    "architecture": "arch",
    "budget": "budget",
    "impairments": "impairments",
    "pilots": "pilots",
    "aging": "aging",
}

# Every (scenario, key) a scenario does not read.
UNREAD = {
    "a": ["num_ue", "num_paths", "kappa_ue_db", "dl_data_fraction", "hd_pilot_fraction", "aging",
          "budget.ul_power_dbm", "architecture.phase_bits"],
    "b": ["num_ue", "kappa_ue_db", "dl_data_fraction", "hd_pilot_fraction", "aging",
          "budget.ul_power_dbm"],
    "c": ["num_paths", "dl_ue_antennas", "ul_ue_antennas", "ul_streams", "kappa_ue_db",
          "architecture.phase_bits", "pilots.num_pilots"],
    "d": ["num_ue", "num_paths", "dl_ue_antennas", "ul_ue_antennas", "ul_streams", "aging",
          "pilots.num_pilots"],
}


def _every_key():
    """Every JSON key of any scenario, a section's fields as 'section.field'.
    A field computed from the others, such as `AgingParams.rho`, is no key."""
    full = default_scenario("c")  # the only scenario with every section set
    keys = []
    for field in dataclasses.fields(full):
        section = next((k for k, attr in SECTIONS.items() if attr == field.name), None)
        if section is None:
            keys.append(field.name)
        else:
            fields = dataclasses.fields(getattr(full, field.name))
            keys += [f"{section}.{f.name}" for f in fields if f.init]
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


@dataclasses.dataclass
class Call:
    """One recorded call: its positional arguments, and its result once it
    has returned."""

    args: tuple
    result: object = None


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(owner, name)` wraps `owner.name` for the test and
    returns the list it appends one `Call` to per call.  Calls made in
    forked trial workers are not seen, only those of the calling process's
    own chunk, so count with `jobs=1`."""

    def count(owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args):
            call = Call(args)
            calls.append(call)
            call.result = original(*args)
            return call.result

        monkeypatch.setattr(owner, name, counted)
        return calls

    return count


@pytest.fixture
def blas_threads():
    """`trials._blas_threads`, the OpenBLAS thread count of the test
    process, with the count it had put back after the test; skips where
    numpy bundles no OpenBLAS."""
    before = trials._blas_threads()
    if before is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    yield trials._blas_threads
    trials._blas_threads(before)
