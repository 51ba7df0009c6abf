"""Import-path guard: importing fdmimo, parsing a config, `fdmimo
validate`, `fdmimo complexity` and a config error load no numpy, and no
scipy.special or thread pool; a scenario-c run loads no scipy at all:
fdmimo computes J0 itself."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

import fdmimo
from fdmimo import config
from fdmimo.cli import default_scenario
from fdmimo.config import doppler_correlation
from fdmimo.link import run_scenario

_COLD_START = """
import sys
import fdmimo
import fdmimo.cli
for code in "abcd":
    fdmimo.cli.parse_config(f"scenario_{code}")
fdmimo.default_scenario("a")
print(sorted(m for m in ("numpy", "scipy.special", "concurrent.futures", "multiprocessing")
             if m in sys.modules))
"""

# The command's exit code, then whether it loaded numpy.
_COMMAND = """
import sys
from fdmimo.cli import main
code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""

_SCENARIO_C_RUN = """
import dataclasses, sys
import fdmimo.cli
from fdmimo.link import run_scenario
run_scenario(dataclasses.replace(fdmimo.cli.parse_config("scenario_c"), trials=1))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _fresh_interpreter(code: str, *args: str) -> str:
    """stdout of `code` run with `args` by a new interpreter importing this fdmimo."""
    src = str(Path(fdmimo.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_parsing_bundled_configs_loads_neither_scipy_nor_thread_pool():
    # Nor numpy: `fdmimo.config` and the package's lazy exports need none.
    assert _fresh_interpreter(_COLD_START) == "[]"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate", "--config", "scenario_c"], 0),
        (["complexity", "--config", "scenario_b"], 0),
        (["run", "--config", "{bad}"], 1),
        (["run", "--config", "scenario_a", "--out", "{missing}"], 1),
    ],
    ids=["validate", "complexity", "bad-config", "missing-out-directory"],
)
def test_commands_that_run_no_sweep_load_no_numpy(tmp_path, argv, code):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "a", "junk": 1}))
    argv = [a.format(bad=bad, missing=tmp_path / "missing" / "out.csv") for a in argv]
    assert _fresh_interpreter(_COMMAND, *argv).splitlines()[-1] == f"{code} False"


def test_scenario_c_run_loads_no_scipy_module():
    assert _fresh_interpreter(_SCENARIO_C_RUN) == "[]"


def test_scenario_c_computes_rho_once_per_run(monkeypatch):
    calls = []

    def counted(doppler_hz, slot_s):
        calls.append((doppler_hz, slot_s))
        return doppler_correlation(doppler_hz, slot_s)

    monkeypatch.setattr(config, "doppler_correlation", counted)
    cfg = dataclasses.replace(default_scenario("c"), trials=3, power_sweep_dbm=(0.0, 30.0))
    run_scenario(cfg, jobs=1)
    assert calls == [(50.0, 1e-3)]


def test_doppler_correlation_is_scipy_j0():
    assert doppler_correlation(50.0, 1e-3) == float(scipy.special.j0(2 * np.pi * 0.05))
