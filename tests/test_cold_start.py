"""Import-path guard: parsing a config loads numpy, not scipy.special."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.special

import fdmimo
from fdmimo.channel import doppler_correlation

_COLD_START = """
import sys
import fdmimo.cli
for code in "abcd":
    fdmimo.cli.parse_config(f"scenario_{code}")
print(sorted(m for m in ("scipy.special", "concurrent.futures") if m in sys.modules))
"""


def test_parsing_bundled_configs_loads_neither_scipy_nor_thread_pool():
    src = str(Path(fdmimo.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_doppler_correlation_is_scipy_j0():
    assert doppler_correlation(50.0, 1e-3) == float(scipy.special.j0(2 * np.pi * 0.05))
