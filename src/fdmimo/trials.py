"""Where the trials of a run execute, and how each process running them is set up.

The trials of a run are shared among worker processes forked after the
per-run stage (`_pooled_rates`), one contiguous chunk each, so the per-run
constants reach every worker through the fork and stay read-only.  Every
trial draws from its own child seed and fills its own row, so the curves
do not depend on the number of workers; with one, and wherever `_forks`
says no, the trials run in the calling process (`_run_here`).  Every
process that runs trials fixes glibc's malloc thresholds first, so that
it reuses its heap from trial to trial whatever it did before: each
forked worker (`_serve`), and the calling process whenever it runs
trials, a failed chunk's replay included, and keeps them, since glibc
cannot read them back.  Only the workers also cut OpenBLAS to one thread.
"""

from __future__ import annotations

import ctypes
import os
import sys
from typing import Callable, Optional

import numpy as np

from fdmimo.config import ScenarioConfig

_Trial = Callable[[int], np.ndarray]  # a trial's (power, scheme) rates, by trial index


class TrialError(RuntimeError):
    """A trial of `run_scenario` failed.

    The message names the scenario, seed, trial index and, as far as the
    trial got, the power and scheme, so that `run_trial` can replay it.
    The original fault is chained as `__cause__`.
    """


# Fewest trials a worker process is given by default: below it, forking
# the pool costs more than the trials it shares out.
_MIN_TRIALS_PER_WORKER = 3

_SERVED: Optional[_Trial] = None  # the trial a forked worker serves, set by `_serve`

# Thread-count setters of the OpenBLAS that numpy's wheels bundle, newest
# releases first.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads",
)


def _openblas() -> Optional[object]:
    """The OpenBLAS library that numpy's wheel bundles (`numpy.libs` on
    Linux, `numpy/.dylibs` on macOS), or None: another BLAS, or numpy
    built some other way."""
    root = os.path.dirname(np.__file__)
    for folder in (root + ".libs", os.path.join(root, ".dylibs")):
        try:
            names = sorted(os.listdir(folder))
        except OSError:
            continue
        for name in names:
            if "openblas" in name:
                return ctypes.CDLL(os.path.join(folder, name))
    return None


# glibc's `mallopt` settings for a process that runs trials, (parameter,
# bytes): M_MMAP_THRESHOLD, so that blocks under 4 MiB come from the heap,
# and M_TRIM_THRESHOLD, so that up to 8 MiB of free heap top stays mapped.
_MALLOPT = ((-3, 4 << 20), (-1, 8 << 20))


def _fix_malloc_thresholds() -> None:
    """Fix the C allocator's thresholds in this process (`_MALLOPT`), unless
    the C library cannot be opened so (Windows) or has no `mallopt`.  glibc
    returns a block over its mmap threshold to the kernel on free: a serial
    20-trial scenario-a run on one CPU, faulting its packet-length arrays in
    afresh slot after slot, took 81.5k minor faults, and 1.0k with them."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # Windows' CDLL takes no None
        return
    if hasattr(libc, "mallopt"):
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        for param, value in _MALLOPT:
            libc.mallopt(param, value)


def _serve(trial_rates: _Trial) -> None:
    """Start a trial worker: keep the trial it serves, cut BLAS to one
    thread (on 2 cores at OpenBLAS's default, c's default run took 1.9-2.6
    s on 2 workers against 1.3-1.7 s serially), and fix the allocator's
    thresholds (a 20-trial scenario-a run's two workers, forked with
    cached bytecode, took 88k minor faults without, and 5.5k with them)."""
    global _SERVED
    _SERVED = trial_rates
    lib = _openblas()
    name = next((name for name in _OPENBLAS_SETTERS if hasattr(lib, name)), None)
    if name is not None:
        getattr(lib, name)(1)
    _fix_malloc_thresholds()


def _chunk_rates(start: int, stop: int) -> np.ndarray:
    return np.stack([_SERVED(t) for t in range(start, stop)])


def _run_here(trial_rates: _Trial, rates: np.ndarray, start: int, stop: int) -> None:
    """Fill rows `start` to `stop` of `rates` in this process."""
    _fix_malloc_thresholds()
    for t in range(start, stop):
        rates[t] = trial_rates(t)


def _forks() -> bool:
    """Whether trials may run on forked workers.  Not where the platform
    cannot fork, and not on Python 3.12 or later: there `os.fork` warns
    (DeprecationWarning) in a process that has threads, as numpy's BLAS
    pool does, and the fork-after-threads hazard behind that warning has
    not been checked on those versions."""
    if sys.version_info >= (3, 12):
        return False
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _workers(trials: int, jobs: Optional[int]) -> int:
    """Worker processes for a run of `trials`; 1 runs the trials in this
    process.  By default one per available core, each with at least
    `_MIN_TRIALS_PER_WORKER` trials; never more than one per trial, and
    none where trials may not fork (`_forks`)."""
    if jobs is None:
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:  # no CPU affinity on this platform
            cores = os.cpu_count() or 1
        jobs = max(1, min(cores, trials // _MIN_TRIALS_PER_WORKER))
    elif isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    jobs = min(jobs, trials)
    if jobs > 1 and not _forks():
        return 1
    return jobs


def _pooled_rates(cfg: ScenarioConfig, trial_rates: _Trial, jobs: int, rates: np.ndarray) -> None:
    """Fill `rates` on `jobs` forked workers, each given one contiguous
    chunk of `cfg`'s trials, and write each chunk back by trial index.

    The workers inherit `trial_rates` and what it holds from the fork, not
    as pickled copies.  A chunk that fails is replayed here: trials are
    deterministic, so the replay raises the serial loop's first TrialError,
    with its own cause.  A worker that dies breaks every unfinished chunk,
    so its TrialError names the trials from the first unfinished chunk to
    the last, and `jobs=1` finds the one that failed.  Every worker has
    exited when this returns or raises."""
    import multiprocessing
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def submit(start: int, stop: int) -> Future:
        # The first submit forks every worker, so one can die, and break
        # the pool, before the last chunk is queued.
        try:
            return pool.submit(_chunk_rates, start, stop)
        except BrokenProcessPool as exc:
            future = Future()
            future.set_exception(exc)
            return future

    edges = [cfg.trials * k // jobs for k in range(jobs + 1)]
    chunks = list(zip(edges[:-1], edges[1:]))
    with ProcessPoolExecutor(
        jobs, mp_context=multiprocessing.get_context("fork"),
        initializer=_serve, initargs=(trial_rates,),
    ) as pool:
        futures = [submit(start, stop) for start, stop in chunks]
        for (start, stop), future in zip(chunks, futures):
            try:
                rates[start:stop] = future.result()
            except BrokenProcessPool as exc:
                raise TrialError(
                    f"scenario {cfg.scenario}, seed {cfg.seed}, trials {start}-{cfg.trials - 1}: "
                    f"a worker process died in one of them ({exc}); "
                    f"run them with jobs=1 to find the trial"
                ) from exc
            except Exception:  # noqa: BLE001  any fault is replayed as the serial loop meets it
                _run_here(trial_rates, rates, start, stop)


def _rates(cfg: ScenarioConfig, trial_rates: _Trial, jobs: Optional[int]) -> np.ndarray:
    """The (trial, power, scheme) rates of `cfg`'s trials, on `_workers`."""
    rates = np.zeros((cfg.trials, len(cfg.power_sweep_dbm), len(cfg.schemes)))
    jobs = _workers(cfg.trials, jobs)
    if jobs > 1:
        _pooled_rates(cfg, trial_rates, jobs, rates)
    else:
        _run_here(trial_rates, rates, 0, cfg.trials)
    return rates
