"""Import-path guard: parsing a config loads numpy, not scipy.special, and
a scenario-c run loads no scipy at all: fdmimo computes J0 itself."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.special

import fdmimo
from fdmimo import channel
from fdmimo.channel import doppler_correlation
from fdmimo.cli import default_scenario
from fdmimo.link import run_scenario

_COLD_START = """
import sys
import fdmimo.cli
for code in "abcd":
    fdmimo.cli.parse_config(f"scenario_{code}")
print(sorted(m for m in ("scipy.special", "concurrent.futures") if m in sys.modules))
"""

_SCENARIO_C_RUN = """
import dataclasses, sys
import fdmimo.cli
from fdmimo.link import run_scenario
run_scenario(dataclasses.replace(fdmimo.cli.parse_config("scenario_c"), trials=1))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _fresh_interpreter(code: str) -> str:
    """stdout of `code` run by a new interpreter importing this fdmimo."""
    src = str(Path(fdmimo.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_parsing_bundled_configs_loads_neither_scipy_nor_thread_pool():
    assert _fresh_interpreter(_COLD_START) == "[]"


def test_scenario_c_run_loads_no_scipy_module():
    assert _fresh_interpreter(_SCENARIO_C_RUN) == "[]"


def test_scenario_c_computes_rho_once_per_run(monkeypatch):
    calls = []

    def counted(doppler_hz, slot_s):
        calls.append((doppler_hz, slot_s))
        return doppler_correlation(doppler_hz, slot_s)

    monkeypatch.setattr(channel, "doppler_correlation", counted)
    cfg = dataclasses.replace(default_scenario("c"), trials=3, power_sweep_dbm=(0.0, 30.0))
    run_scenario(cfg)
    assert calls == [(50.0, 1e-3)]


def test_doppler_correlation_is_scipy_j0():
    assert doppler_correlation(50.0, 1e-3) == float(scipy.special.j0(2 * np.pi * 0.05))
