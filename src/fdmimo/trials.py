"""Where the trials of a run execute, and how the processes running them are set up.

A run's trials are split into `jobs` contiguous chunks, one per process,
and one loop runs them all (`_rates`): the calling process forks a worker
per chunk after the first, after the per-run stage, whose constants reach
the workers read-only, and runs the first chunk itself.  With one chunk,
or where `_forks` says no, it forks nothing.  A run sets up its processes
once, before it forks: glibc's malloc thresholds, and for a shared run
OpenBLAS on one thread, are process memory that every worker inherits.
After the run the caller's BLAS thread count is restored.  Each trial
draws from its own child seed and fills its own row, so the curves do not
depend on `jobs`.  What a worker records stays in it: `count_calls` and
cProfile in the caller see its chunk only, so count with `jobs=1`.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import mmap
import os
import signal
import sys
from typing import Callable, Optional

import numpy as np

from fdmimo.config import ScenarioConfig

_Trial = Callable[[int], np.ndarray]  # a trial's (power, scheme) rates, by trial index


class TrialError(RuntimeError):
    """A trial of `run_scenario` failed.

    The message names the scenario, seed, trial index and, for a fault,
    the first power and scheme at which `run_trial` raises too, if any.
    The original fault is chained as `__cause__`.
    """


# Fewest trials a worker process is given by default: below it, forking
# the pool costs more than the trials it shares out.
_MIN_TRIALS_PER_WORKER = 3

# Thread-count getters and setters ("get", "set") of the OpenBLAS that
# numpy's wheels bundle, newest releases first.
_OPENBLAS_THREADS = (
    "scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads",
)


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[tuple]:
    """The thread-count (getter, setter) of the OpenBLAS in numpy's wheel
    (`numpy.libs` on Linux, `numpy/.dylibs` on macOS), looked up once per
    process; None for another BLAS, or numpy built some other way."""
    root = os.path.dirname(np.__file__)
    for pattern in (root + ".libs/*openblas*", root + "/.dylibs/*openblas*"):
        lib = next((ctypes.CDLL(path) for path in sorted(glob.glob(pattern))), None)
        name = next((name for name in _OPENBLAS_THREADS if hasattr(lib, name.format("set"))), None)
        if name is not None:
            get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


def _blas_threads(n: Optional[int] = None) -> Optional[int]:
    """The thread count of numpy's bundled OpenBLAS in this process; with
    `n`, set to `n` first.  None, setting nothing, without that OpenBLAS."""
    if _openblas() is None:
        return None
    get, put = _openblas()
    if n is not None:
        put(n)
    return get()


# glibc's `mallopt` settings for a process that runs trials, (parameter,
# bytes): M_MMAP_THRESHOLD, so that blocks under 4 MiB come from the heap,
# and M_TRIM_THRESHOLD, so that up to 8 MiB of free heap top stays mapped.
_MALLOPT = ((-3, 4 << 20), (-1, 8 << 20))


@functools.lru_cache(maxsize=None)
def _mallopt() -> Optional[Callable[[int, int], int]]:
    """The C library's `mallopt`, opened once per process, or None."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):  # Windows' CDLL takes no None
        return None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


def _fix_malloc_thresholds() -> None:
    """Fix the C allocator's thresholds in this process (`_MALLOPT`), unless
    the C library cannot be opened so (Windows) or has no `mallopt`.  glibc
    returns a block over its mmap threshold to the kernel on free: a serial
    20-trial scenario-a run on one CPU, faulting its packet-length arrays in
    afresh slot after slot, took 81.5k minor faults, and 1.0k with them."""
    mallopt = _mallopt()
    if mallopt is not None:
        for param, value in _MALLOPT:
            mallopt(param, value)


def _forks() -> bool:
    """Whether trials may run on forked workers: not where the platform
    cannot fork, nor on Python 3.12 or later, where `os.fork` warns
    (DeprecationWarning) in a process that has threads, as numpy's BLAS
    pool does, and the hazard behind that warning has not been checked."""
    return sys.version_info < (3, 12) and hasattr(os, "fork")


def _workers(trials: int, jobs: Optional[int]) -> int:
    """Processes for a run of `trials`, this one included; 1 runs the trials
    in this process.  By default one per available core, each with at least
    `_MIN_TRIALS_PER_WORKER` trials; never more than one per trial, and one
    where trials may not fork (`_forks`)."""
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


def _rates(cfg: ScenarioConfig, trial_rates: _Trial, jobs: Optional[int]) -> np.ndarray:
    """The (trial, power, scheme) rates of `cfg`'s trials, written by
    `_workers` processes into one shared mapping.  Every process runs
    OpenBLAS on one thread when there are several (at its default, c's
    default run took 1.9-2.6 s on 2 workers against 1.3-1.7 s serially, on
    2 cores).  Chunks are checked in order: a worker that raised is
    replayed here, raising the serial loop's first TrialError, and one that
    died otherwise is a TrialError.  No worker outlives the call."""
    jobs = _workers(cfg.trials, jobs)
    shape = (cfg.trials, len(cfg.power_sweep_dbm), len(cfg.schemes))
    rates = np.ndarray(shape, buffer=mmap.mmap(-1, 8 * int(np.prod(shape))))  # zero-filled
    edges = [cfg.trials * k // jobs for k in range(jobs + 1)]
    first, *others = zip(edges, edges[1:])

    def fill(start: int, stop: int) -> None:
        for t in range(start, stop):
            rates[t] = trial_rates(t)

    _fix_malloc_thresholds()
    threads = _blas_threads()
    workers = []  # (pid, start, stop) of each worker not yet reaped, in chunk order
    try:
        if others:
            _blas_threads(1)
        for start, stop in others:
            pid = os.fork()
            if pid == 0:  # a worker: it leaves with 0, or 1 if anything raised
                code = 1
                try:
                    fill(start, stop)
                    code = 0
                finally:
                    os._exit(code)
            workers.append((pid, start, stop))
        fill(*first)
        while workers:
            pid, start, stop = workers[0]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            if code == 1:
                fill(start, stop)
            elif code != 0:
                raise TrialError(
                    f"scenario {cfg.scenario}, seed {cfg.seed}, trials {start}-{stop - 1}: "
                    f"a worker process died in one of them (exit code {code}); "
                    f"run them with jobs=1 to find the trial"
                )
    finally:
        _blas_threads(threads)  # only reads where there is no OpenBLAS
        for pid, _, _ in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return rates
