"""Heap guard: a warm scenario c sweep does not page-fault on every slot.

When the digital canceller's per-slot temporaries pass glibc's trim
threshold, the heap is trimmed and regrown on every full-duplex slot, and
each regrowth page-faults. The fault count is the only place this shows:
the curves and the traced call counts stay the same.

Measured as below (a fresh interpreter, a warm 3-trial scenario c sweep,
then the `ru_minflt` delta of a second one) on Linux with Python 3.11,
numpy 2.4 and OpenBLAS on one thread: about 9,500 minor faults when the
canceller built its regressors with `vstack` and copied them and the
target out of place, and about 980 since the slot path builds each
packet-length array once. The ceiling sits below half the first count.

A process that runs trials itself, `fdmimo run` on one CPU or a library
call with `jobs=1`, would show the same churn whenever nothing it did first
raised glibc's mmap threshold; `fdmimo.trials` fixes the allocator's
thresholds in every process that runs trials, so neither has to.
"""

import ctypes
import dataclasses
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fdmimo
from fdmimo import trials
from fdmimo.cli import default_scenario, main
from fdmimo.link import run_scenario

FAULT_CEILING = 4_500

_WARM_SWEEP = """
import dataclasses
import resource
from fdmimo.cli import parse_config
from fdmimo.link import run_scenario
cfg = dataclasses.replace(parse_config("scenario_c"), trials=3, seed=1)
run_scenario(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_scenario(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour")
def test_warm_scenario_c_sweep_does_not_fault_per_slot():
    src = str(Path(fdmimo.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_SWEEP],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout)
    assert faults <= FAULT_CEILING, f"{faults} minor faults in a warm 3-trial sweep"


# `fdmimo run` on one CPU, whose CSV goes to a pipe as a shell's would:
# the process's own minor faults, startup and numpy's import included.
_SERIAL_RUN = """
import os, resource, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from fdmimo.cli import main
code = main(["run", "--config", "scenario_a", "--trials", "6"])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt, file=sys.stderr)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour")
def test_fdmimo_run_on_one_cpu_reuses_its_heap():
    # Measured with Python 3.11, numpy 2.4 and OpenBLAS on one thread: about
    # 30.7k minor faults when the process kept glibc's default thresholds,
    # and 6.4k with them fixed; a 6-trial run is enough to tell them apart.
    # Catching the CSV in a StringIO inside the process hid most of the
    # churn, so it goes to a pipe.
    src = str(Path(fdmimo.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SERIAL_RUN],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, faults = map(int, proc.stderr.split()[-2:])
    assert code == 0, proc.stderr
    assert proc.stdout.startswith("power_dbm,scheme,")
    assert faults <= 20_000, f"{faults} minor faults in a 6-trial serial fdmimo run"


# A library call with `jobs=1` on one CPU, its modules' bytecode cached as
# an installed package's is: the process's own minor faults, startup and
# numpy's import included.
_SERIAL_LIBRARY_RUN = """
import dataclasses, os, resource
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from fdmimo import default_scenario, run_scenario
run_scenario(dataclasses.replace(default_scenario("a"), trials=6), jobs=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour")
def test_a_serial_library_run_on_one_cpu_reuses_its_heap(tmp_path):
    # Measured with Python 3.11, numpy 2.4 and OpenBLAS on one thread: about
    # 30.6k minor faults when the calling process kept glibc's default
    # thresholds, and 6.3k, mostly numpy's import, with them fixed.
    # Compiling the modules on import would raise the dynamic threshold
    # and hide the churn, so the second run imports cached bytecode.
    src = str(Path(fdmimo.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path)
    env["OPENBLAS_NUM_THREADS"] = "1"
    for _ in range(2):  # the first run compiles what the second imports
        proc = subprocess.run(
            [sys.executable, "-c", _SERIAL_LIBRARY_RUN], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout)
    assert faults <= 12_000, f"{faults} minor faults in a 6-trial serial library run"


def test_runs_succeed_where_the_c_library_cannot_be_opened_by_none(
    tmp_path, monkeypatch, capsys
):
    # On Windows `ctypes.CDLL(None)` raises TypeError; `fdmimo run` died of
    # it before any trial.
    cdll = ctypes.CDLL

    def windows_cdll(name, *args, **kwargs):
        if name is None:
            raise TypeError("argument of type 'NoneType' is not iterable")
        return cdll(name, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", windows_cdll)
    # `_mallopt` opens the C library once per process: a fresh cache, so that
    # this run opens it under the patch.
    monkeypatch.setattr(trials, "_mallopt", functools.lru_cache(trials._mallopt.__wrapped__))
    cfg = dataclasses.replace(default_scenario("a"), trials=1, power_sweep_dbm=(20.0,))
    assert len(run_scenario(cfg, jobs=1)) == len(cfg.schemes)
    out = tmp_path / "curves.csv"
    argv = ["run", "--config", "scenario_a", "--trials", "1", "--out", str(out)]
    assert main(argv) == 0, capsys.readouterr().err
    assert out.read_text().startswith("power_dbm,scheme,")
