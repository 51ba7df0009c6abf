"""Trials on forked worker processes: the curves, the faults and the
processes left behind are those of the serial loop.

Faults are planted with monkeypatch, which the forked workers inherit:
a scenario's draw is wrapped so that chosen trials, told apart by their
child seed's spawn key, raise or kill their worker.
"""

import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdmimo
from fdmimo import config, link
from fdmimo.beamforming import SingularChannelError
from fdmimo.cli import default_scenario, format_csv, main
from fdmimo.config import doppler_correlation
from fdmimo.link import TrialError, run_scenario

# Tests of the pool itself; elsewhere `jobs` > 1 runs the trials serially.
needs_fork = pytest.mark.skipif(
    not link._forks(), reason="trials run serially without fork or on Python >= 3.12"
)


def _small(code: str, trials: int, seed: int = 1, powers: int = 2):
    """Scenario `code`'s bundled config cut to `trials` trials and its
    `powers` highest powers."""
    base = default_scenario(code)
    return dataclasses.replace(
        base, trials=trials, seed=seed, power_sweep_dbm=base.power_sweep_dbm[-powers:]
    )


@st.composite
def small_configs(draw):
    return _small(
        draw(st.sampled_from("abcd")), draw(st.integers(1, 7)), draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 2)),
    )


@settings(max_examples=6, deadline=None)
@given(cfg=small_configs())
@example(cfg=_small("a", 5))  # chunks of 2 and 3 trials, then of 1, 2 and 2
@example(cfg=_small("b", 7))
@example(cfg=_small("c", 2))  # three jobs asked for two trials
@example(cfg=_small("d", 5, powers=1))
def test_curves_do_not_depend_on_the_worker_count(cfg):
    serial = format_csv(run_scenario(cfg, jobs=1))
    for jobs in (2, 3):
        assert format_csv(run_scenario(cfg, jobs=jobs)) == serial, jobs
    assert multiprocessing.active_children() == []


@needs_fork
def test_each_trial_fills_its_own_row():
    # The CSV's means hide the order of rows; the rates do not.
    cfg = _small("b", 5)
    consts = link._run_constants(cfg)
    rates = np.zeros((cfg.trials, len(cfg.power_sweep_dbm), len(cfg.schemes)))
    link._pooled_rates(cfg, consts, 3, rates)
    for t in range(cfg.trials):
        assert np.array_equal(rates[t], link._trial_rates(cfg, consts, t)), t


def test_jobs_must_be_a_positive_integer():
    cfg = _small("a", 1, powers=1)
    for jobs in (0, -1, 2.0, True, "2"):
        with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
            run_scenario(cfg, jobs=jobs)


def test_cli_run_prints_the_serial_csv(tmp_path, capsys):
    # Six trials take two workers by default wherever there are two cores.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "d", "trials": 6, "power_sweep_dbm": [30, 45]}))
    assert main(["run", "--config", str(path)]) == 0
    cfg = dataclasses.replace(default_scenario("d"), trials=6, power_sweep_dbm=(30.0, 45.0))
    assert capsys.readouterr().out == format_csv(run_scenario(cfg, jobs=1))


def _plant(monkeypatch, code: str, fault) -> None:
    """Call `fault(trial)` before every draw of scenario `code`."""
    drv = link._DRIVERS[code]

    def draw(cfg, rng):
        fault(rng.bit_generator.seed_seq.spawn_key[0])
        return drv.draw(cfg, rng)

    monkeypatch.setitem(link._DRIVERS, code, dataclasses.replace(drv, draw=draw))


def test_a_failing_chunk_raises_the_serial_loops_first_fault(tmp_path, monkeypatch, capsys):
    def fault(trial):
        if trial in (2, 4):  # one in each chunk of two workers
            raise SingularChannelError(f"planted in trial {trial}")

    _plant(monkeypatch, "a", fault)
    cfg = _small("a", 6, seed=3, powers=1)
    raised = {}
    for jobs in (1, 2):
        with pytest.raises(TrialError) as info:
            run_scenario(cfg, jobs=jobs)
        raised[jobs] = info.value
        assert multiprocessing.active_children() == []
    assert str(raised[2]) == str(raised[1]) == (
        "scenario a, seed 3, trial 2 (set-up): SingularChannelError: planted in trial 2"
    )
    assert type(raised[2].__cause__) is SingularChannelError

    monkeypatch.setattr("fdmimo.link.run_scenario", partial(run_scenario, jobs=2))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "a", "seed": 3, "trials": 6}))
    assert main(["run", "--config", str(path)]) == 2
    assert "runtime error: scenario a, seed 3, trial 2 (set-up)" in capsys.readouterr().err


@needs_fork
def test_a_dead_worker_is_a_trial_error_naming_the_unfinished_trials(tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def fault(trial):
        if os.getpid() != parent:
            os._exit(3)

    _plant(monkeypatch, "c", fault)
    died = "scenario c, seed 5, trials 0-5: a worker process died in one of them"
    with pytest.raises(TrialError, match=died):
        run_scenario(_small("c", 6, seed=5, powers=1), jobs=2)
    assert multiprocessing.active_children() == []

    monkeypatch.setattr("fdmimo.link.run_scenario", partial(run_scenario, jobs=2))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "c", "seed": 5, "trials": 6}))
    assert main(["run", "--config", str(path)]) == 2
    assert f"runtime error: {died}" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_worker_that_dies_before_the_last_chunk_is_queued_is_a_trial_error(monkeypatch):
    # Each chunk is queued once the one before it has failed, so the pool
    # is already broken when the second is submitted.
    parent = os.getpid()

    def fault(trial):
        if os.getpid() != parent:
            os._exit(3)

    _plant(monkeypatch, "c", fault)
    submit = ProcessPoolExecutor.submit

    def one_at_a_time(pool, *args):
        future = submit(pool, *args)
        concurrent.futures.wait([future], timeout=60)
        return future

    monkeypatch.setattr(ProcessPoolExecutor, "submit", one_at_a_time)
    died = "scenario c, seed 5, trials 0-5: a worker process died in one of them"
    with pytest.raises(TrialError, match=died):
        run_scenario(_small("c", 6, seed=5, powers=1), jobs=2)
    assert multiprocessing.active_children() == []


def test_workers_reuse_the_runs_rho(tmp_path, monkeypatch):
    # Each process appends its pid, so a worker's call shows too.
    log = tmp_path / "calls"

    def counted(doppler_hz, slot_s):
        with log.open("a") as f:
            f.write(f"{os.getpid()}\n")
        return doppler_correlation(doppler_hz, slot_s)

    monkeypatch.setattr(config, "doppler_correlation", counted)
    run_scenario(_small("c", 6), jobs=2)
    assert log.read_text().split() == [str(os.getpid())]


_FORK_AFTER_BLAS_THREADS = """
import dataclasses, multiprocessing
import numpy as np
from fdmimo.cli import default_scenario, format_csv
from fdmimo.link import run_scenario

a = np.random.default_rng(0).standard_normal((1200, 1200))
a @ a  # starts OpenBLAS's thread pool before the fork
cfg = dataclasses.replace(default_scenario("a"), trials=6, power_sweep_dbm=(20.0, 40.0))
pooled = format_csv(run_scenario(cfg, jobs=2))
print(pooled == format_csv(run_scenario(cfg, jobs=1)), multiprocessing.active_children())
"""


@needs_fork
def test_forking_after_blas_threads_start_does_not_hang():
    src = str(Path(fdmimo.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-c", _FORK_AFTER_BLAS_THREADS],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the workers too
        proc.communicate()
        pytest.fail("run_scenario(jobs=2) hung after BLAS threads started")
    assert proc.returncode == 0, err
    assert out.split() == ["True", "[]"]


def test_python_3_12_runs_the_trials_serially(monkeypatch):
    # There os.fork warns in a process with threads, such as BLAS's pool.
    monkeypatch.setattr(link, "sys", SimpleNamespace(version_info=(3, 12, 0)))
    assert not link._forks()
    assert link._workers(12, None) == link._workers(12, 4) == 1


def _blas_threads() -> int:
    lib = link._openblas()
    name = next(name for name in link._OPENBLAS_SETTERS if hasattr(lib, name))
    return getattr(lib, name.replace("_set_", "_get_"))()


@needs_fork
@pytest.mark.skipif(link._openblas() is None, reason="numpy does not bundle OpenBLAS here")
def test_a_worker_runs_blas_on_one_thread():
    # One worker per core already fills the cores; BLAS threads would crowd them.
    before = _blas_threads()
    cfg = _small("a", 2)
    consts = link._run_constants(cfg)
    with ProcessPoolExecutor(
        1, mp_context=multiprocessing.get_context("fork"),
        initializer=link._serve, initargs=(cfg, consts),
    ) as pool:
        assert pool.submit(_blas_threads).result() == 1
    assert _blas_threads() == before


# A default 20-trial scenario-a run on two workers: their minor page
# faults and the largest one's peak RSS in KiB.
_WORKER_HEAP = """
import dataclasses, resource
from fdmimo import default_scenario, run_scenario
run_scenario(dataclasses.replace(default_scenario("a"), trials=20), jobs=2)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(usage.ru_minflt, usage.ru_maxrss)
"""


@needs_fork
@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator thresholds are glibc's")
def test_workers_reuse_their_heap_with_cached_bytecode(tmp_path):
    # An installed package imports cached bytecode.  Whether a worker
    # returns its packet-length arrays to the kernel and faults them in
    # again depends on the heap it inherits, and compiling the modules on
    # import hid that churn.  On 2 cores the workers took 88.8k faults
    # without fixed thresholds and about 5.5k, the fork's own, with them;
    # peak RSS read 38 MB either way.
    src = str(Path(fdmimo.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path)
    for _ in range(2):  # the first run compiles what the second imports
        proc = subprocess.run(
            [sys.executable, "-c", _WORKER_HEAP], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    faults, peak_kib = map(int, proc.stdout.split())
    assert faults < 20_000
    assert peak_kib < 44 * 1024
