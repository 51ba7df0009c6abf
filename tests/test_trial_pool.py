"""Trials shared between the calling process and forked workers: the
curves, the faults and the processes left behind are those of the serial
loop.

Faults are planted with monkeypatch, which the forked workers inherit:
a scenario's draw is wrapped so that chosen trials, told apart by their
child seed's spawn key, raise, stall or kill their process.
"""

import dataclasses
import json
import os
import platform
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdmimo
from fdmimo import config, link, trials
from fdmimo.beamforming import SingularChannelError
from fdmimo.cli import default_scenario, format_csv, main
from fdmimo.config import doppler_correlation
from fdmimo.link import TrialError, run_scenario

# Tests of the pool itself; elsewhere `jobs` > 1 runs the trials serially.
needs_fork = pytest.mark.skipif(
    not trials._forks(), reason="trials run serially without fork or on Python >= 3.12"
)


def _no_children() -> None:
    """Assert that this process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    _no_children()


@needs_fork
def test_each_trial_fills_its_own_row():
    # The CSV's means hide the order of rows; the rates do not.
    cfg = _small("b", 5)
    consts = link._run_constants(cfg)
    rates = trials._rates(cfg, partial(link._trial_rates, cfg, consts), 3)
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
        # At jobs=2 the caller's chunk and the worker's each fault; at
        # jobs=3 both workers' chunks do, and the first is replayed.
        if trial in (2, 4):
            raise SingularChannelError(f"planted in trial {trial}")

    _plant(monkeypatch, "a", fault)
    cfg = _small("a", 6, seed=3, powers=1)
    raised = {}
    for jobs in (1, 2, 3):
        with pytest.raises(TrialError) as info:
            run_scenario(cfg, jobs=jobs)
        raised[jobs] = info.value
        _no_children()
    assert str(raised[3]) == str(raised[2]) == str(raised[1]) == (
        "scenario a, seed 3, trial 2, power 50 dBm, scheme proposed: "
        "SingularChannelError: planted in trial 2"
    )
    assert type(raised[2].__cause__) is type(raised[3].__cause__) is SingularChannelError

    monkeypatch.setattr("fdmimo.link.run_scenario", partial(run_scenario, jobs=2))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "a", "seed": 3, "trials": 6}))
    assert main(["run", "--config", str(path)]) == 2
    assert (
        "runtime error: scenario a, seed 3, trial 2, power -10 dBm, scheme proposed: "
        "SingularChannelError: planted in trial 2"
    ) in capsys.readouterr().err


@needs_fork
def test_a_fault_in_the_callers_chunk_is_raised_without_waiting_for_the_workers(monkeypatch):
    parent = os.getpid()

    def fault(trial):
        if os.getpid() != parent:
            time.sleep(60)
        elif trial == 0:
            raise SingularChannelError("planted in trial 0")

    _plant(monkeypatch, "a", fault)
    cfg = _small("a", 6, seed=3, powers=1)
    with pytest.raises(TrialError) as serial:
        run_scenario(cfg, jobs=1)
    start = time.monotonic()
    with pytest.raises(TrialError) as pooled:
        run_scenario(cfg, jobs=3)
    assert time.monotonic() - start < 10
    assert str(pooled.value) == str(serial.value) == (
        "scenario a, seed 3, trial 0, power 50 dBm, scheme proposed: "
        "SingularChannelError: planted in trial 0"
    )
    _no_children()


@needs_fork
def test_a_dead_worker_is_a_trial_error_naming_the_unfinished_trials(tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def fault(trial):
        if os.getpid() != parent:
            os._exit(3)

    _plant(monkeypatch, "c", fault)
    died = "scenario c, seed 5, trials 3-5: a worker process died in one of them"
    with pytest.raises(TrialError, match=died):
        run_scenario(_small("c", 6, seed=5, powers=1), jobs=2)
    _no_children()

    monkeypatch.setattr("fdmimo.link.run_scenario", partial(run_scenario, jobs=2))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "c", "seed": 5, "trials": 6}))
    assert main(["run", "--config", str(path)]) == 2
    assert f"runtime error: {died}" in capsys.readouterr().err
    _no_children()


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
import dataclasses, os
import numpy as np
from fdmimo.cli import default_scenario, format_csv
from fdmimo.link import run_scenario

a = np.random.default_rng(0).standard_normal((1200, 1200))
a @ a  # starts OpenBLAS's thread pool before the fork
cfg = dataclasses.replace(default_scenario("a"), trials=6, power_sweep_dbm=(20.0, 40.0))
pooled = format_csv(run_scenario(cfg, jobs=2))
try:
    os.waitpid(-1, os.WNOHANG)
    children = "children"
except ChildProcessError:
    children = "none"
print(pooled == format_csv(run_scenario(cfg, jobs=1)), children)
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
    assert out.split() == ["True", "none"]


def test_python_3_12_runs_the_trials_serially(monkeypatch):
    # There os.fork warns in a process with threads, such as BLAS's pool.
    monkeypatch.setattr(trials, "sys", SimpleNamespace(version_info=(3, 12, 0)))
    assert not trials._forks()
    assert trials._workers(12, None) == trials._workers(12, 4) == 1


def _log_draws(monkeypatch, tmp_path, code: str):
    """Log, before every draw of scenario `code`, the process's pid and
    OpenBLAS thread count; returns a reader of the log, trial -> (pid,
    threads).  Each process appends, so the workers' draws show too."""
    log = tmp_path / "draws"

    def record(trial):
        with log.open("a") as f:
            f.write(f"{trial} {os.getpid()} {trials._blas_threads()}\n")

    _plant(monkeypatch, code, record)

    def read():
        rows = [line.split() for line in log.read_text().splitlines()]
        return {int(trial): (int(pid), threads) for trial, pid, threads in rows}

    return read


@needs_fork
def test_the_caller_runs_the_first_chunk_and_one_worker_each_later_chunk(tmp_path, monkeypatch):
    draws = _log_draws(monkeypatch, tmp_path, "b")
    run_scenario(_small("b", 7, powers=1), jobs=3)  # chunks of trials 0-1, 2-3 and 4-6
    pids = [pid for _, (pid, _) in sorted(draws().items())]
    assert len(pids) == 7
    assert pids[0] == pids[1] == os.getpid()
    assert pids[2] == pids[3] != pids[4] == pids[5] == pids[6]
    assert os.getpid() not in (pids[2], pids[4])
    _no_children()


@needs_fork
def test_a_worker_runs_blas_on_one_thread(blas_threads, tmp_path, monkeypatch):
    # One process per core already fills the cores; BLAS threads would crowd
    # them.  The caller starts on two, so that the cut to one shows.
    blas_threads(2)
    draws = _log_draws(monkeypatch, tmp_path, "a")
    run_scenario(_small("a", 2), jobs=2)
    pid, threads = draws()[1]
    assert pid != os.getpid() and threads == "1"


@needs_fork
def test_the_caller_runs_its_chunk_on_one_blas_thread_and_restores_its_count(
    blas_threads, tmp_path, monkeypatch
):
    blas_threads(2)
    draws = _log_draws(monkeypatch, tmp_path, "a")
    run_scenario(_small("a", 2), jobs=2)
    assert draws()[0] == (os.getpid(), "1")
    assert blas_threads() == 2


@needs_fork
def test_the_caller_alone_sets_up_the_runs_processes(blas_threads, tmp_path, monkeypatch):
    # The malloc thresholds and the BLAS thread count are process memory,
    # which a forked worker inherits; so only the caller sets them.
    log = tmp_path / "set-up"

    def logged(call):
        def wrapper(*args):
            with log.open("a") as f:
                f.write(f"{os.getpid()}\n")
            return call(*args)

        return wrapper

    get, put = trials._openblas()
    monkeypatch.setattr(trials, "_openblas", lambda: (get, logged(put)))
    monkeypatch.setattr(trials, "_fix_malloc_thresholds", logged(trials._fix_malloc_thresholds))
    draws = _log_draws(monkeypatch, tmp_path, "a")
    run_scenario(_small("a", 2), jobs=2)
    assert draws()[1][0] != os.getpid()  # trial 1 ran in a worker
    assert set(log.read_text().split()) == {str(os.getpid())}


def test_trials_run_in_the_calling_process_leave_its_blas_threads(blas_threads):
    # A caller that runs every trial shares no cores, so it keeps its own
    # BLAS threading.
    before = blas_threads()
    run_scenario(_small("a", 1, powers=1), jobs=1)
    assert blas_threads() == before


# A default 20-trial scenario-a run in two processes: the worker's minor
# page faults and peak RSS in KiB, and the calling process's own minor
# faults over the run.
_WORKER_HEAP = """
import dataclasses, resource
from fdmimo import default_scenario, run_scenario
cfg = dataclasses.replace(default_scenario("a"), trials=20)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_scenario(cfg, jobs=2)
own = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(usage.ru_minflt, usage.ru_maxrss, own)
"""


@needs_fork
@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator thresholds are glibc's")
def test_workers_reuse_their_heap_with_cached_bytecode(tmp_path):
    # An installed package imports cached bytecode.  Whether a process
    # returns its packet-length arrays to the kernel and faults them in
    # again depends on the heap it inherits, and compiling the modules on
    # import hid that churn.  On 2 cores two workers took 88.8k faults
    # without fixed thresholds and about 5.5k, the fork's own, with them;
    # peak RSS read 38 MB either way.  Since the calling process runs the
    # first chunk, one worker takes about 8.9k faults and peaks at 36 MB,
    # and the caller takes about 2.7k over the run, against 43k when its
    # chunk skips the thresholds.
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
    faults, peak_kib, own_faults = map(int, proc.stdout.split())
    assert faults < 20_000
    assert peak_kib < 44 * 1024
    assert own_faults < 10_000
