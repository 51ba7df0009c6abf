"""fdmimo benchmark: time to the rate-versus-power curves of scenarios a, c and d.

Run from the root of a source tree (the package is imported from `src/`,
nothing is installed):

    python3 bench/run.py --workload sweep_a --seed 1 --seconds 40 --trace 0

A workload loads a bundled scenario config through `fdmimo.cli.parse_config`,
sets the given seed and the workload's trial count, runs
`fdmimo.link.run_scenario` and renders the curves with
`fdmimo.cli.format_csv`.  Every sweep's CSV is compared with the reference
for that (workload, seed); a sweep that raises or differs is failed.  The
CSV is the behaviour contract, so the comparison is byte for byte, with no
float tolerance.

`--trace 0` reports the end-to-end metrics: setup_s (import fdmimo and
parse the config in a fresh interpreter; one child after each sweep, median),
sweep_s (median wall time of one run_scenario call), evals_per_s and
peak_rss_mb.  Times are in reference seconds, rescaled by a probe workload
run next to each interval (see probe.py).  The first sweep of a run is a
warm-up and is not timed.
`--trace 1` alternates untraced sweeps with sweeps under `tracer.Tracer`
and reports per-module and per-function metrics; bench/README.md lists
them and what each should move.

The last stdout line is the result object; the line before it is the
run manifest (commit, source digest, core count, library versions, BLAS
threading, workload, seed, trials, raw samples).
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, and measure the program's default
# (single-threaded) trial loop.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("FDMIMO_THREADS", None)

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from probe import PROBE_REFERENCE_S, probe_seconds
from tracer import MODULES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"

# workload -> (bundled config, trials).  Trial counts put one sweep near
# two seconds on one core, so a 40-second run holds about fifteen.
WORKLOADS: Dict[str, Tuple[str, int]] = {
    "sweep_a": ("scenario_a", 20),
    "sweep_c": ("scenario_c", 20),
    "sweep_d": ("scenario_d", 30),
}
MIN_SWEEPS = 3

E2E_UNITS = {"setup_s": "s", "sweep_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-function metrics of the traced run; module totals and link.evals,
# trace.overhead_s are added in `layer_metrics`.
FUNCTION_METRICS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("channel.steering_vector", ("calls", "self_s", "distinct_ratio")),
    ("beamforming.dft_codebook", ("calls", "self_s", "distinct_ratio")),
    ("beamforming.eigen_precoder", ("self_s",)),
    ("beamforming.mmse_combiner", ("self_s",)),
    ("beamforming.zf_precoder", ("self_s", "fail_ratio")),
    ("estimation.orthogonal_pilots", ("calls", "self_s", "distinct_ratio")),
    ("estimation.mmse_estimate", ("calls", "self_s")),
    ("estimation.doa_estimate", ("calls", "self_s")),
    ("cancellation.train_digital_canceller", ("calls", "self_s", "fail_ratio")),
    ("cancellation.apply_digital_canceller", ("self_s",)),
    ("cancellation.si_aware_precoder_projection", ("calls", "self_s", "fail_ratio")),
    ("cancellation.CancellerState.matrix", ("calls",)),
    ("impairments.apply_tx_chain", ("calls", "self_s")),
    ("link.dl_rate", ("self_s",)),
    ("link.ul_rate", ("self_s",)),
    ("cli.parse_config", ("self_s",)),
    ("cli.format_csv", ("self_s",)),
)
DISTINCT = tuple(f for f, kinds in FUNCTION_METRICS if "distinct_ratio" in kinds)
STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "fail_ratio": "ratio",
    "distinct_ratio": "ratio",
    "evals": "count",
    "overhead_s": "s",
}
# Counts that must repeat exactly between traced sweeps of one seed.
EXACT_STATS = ("calls", "fail_ratio", "distinct_ratio")

_SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fdmimo.cli
fdmimo.cli.parse_config(sys.argv[2])
elapsed = time.perf_counter() - start
print(fdmimo.__file__)
print(repr(elapsed))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, no usable reference)."""


def load_fdmimo() -> None:
    """Import fdmimo from this tree's `src/`, never from an installed copy."""
    if not (SRC / "fdmimo" / "__init__.py").is_file():
        raise BenchError(f"no fdmimo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fdmimo.cli
    import fdmimo.link

    if Path(fdmimo.__file__).resolve().parent != SRC / "fdmimo":
        raise BenchError(f"imported fdmimo from {fdmimo.__file__}, not {SRC}")


def workload_config(workload: str, seed: int):
    from fdmimo import cli

    name, trials = WORKLOADS[workload]
    return dataclasses.replace(cli.parse_config(name), seed=seed, trials=trials)


def evals_per_sweep(cfg) -> int:
    return cfg.trials * len(cfg.power_sweep_dbm) * len(cfg.schemes)


def sweep(workload: str, seed: int) -> Tuple[str, float]:
    """One parse, run and render; returns (CSV text, run_scenario seconds).

    Functions are looked up on their modules at call time, so a tracer
    installed around this call sees parse_config and format_csv too.
    """
    from fdmimo import cli, link

    cfg = workload_config(workload, seed)
    start = time.perf_counter()
    points = link.run_scenario(cfg)
    elapsed = time.perf_counter() - start
    return cli.format_csv(points), elapsed


# ---------------------------------------------------------------------------
# reference curves


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE / f"{workload}.seed{seed}.csv"


def load_digests(workload: str) -> dict:
    """The workload's reference digests, checked against its trial count."""
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing reference table {path}")
    table = json.loads(path.read_text())
    trials = WORKLOADS[workload][1]
    if table["trials"] != trials:
        raise BenchError(
            f"{path} was made at {table['trials']} trials, the workload runs {trials}"
        )
    return table["sha256"]


def csv_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CurveCheck:
    """Decides whether one sweep's CSV is the expected one.

    Seeds with a stored CSV or digest are compared byte for byte.  For any
    other seed the sweep must repeat the run's first CSV exactly and pass
    `structure_problem`; the manifest then records `reference: none`.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        path = reference_path(workload, seed)
        digests = load_digests(workload)
        self.expected_text = path.read_text() if path.is_file() else None
        self.expected_digest = digests.get(str(seed))
        if self.expected_text is not None:
            self.kind = "csv"
        elif self.expected_digest is not None:
            self.kind = "sha256"
        else:
            self.kind = "none"
        self.first: Optional[str] = None

    def problem(self, text: str, cfg) -> Optional[str]:
        if self.first is None:
            self.first = text
        if self.expected_text is not None and text != self.expected_text:
            return "CSV differs from " + reference_path(self.workload, cfg.seed).name
        if self.expected_digest is not None and csv_digest(text) != self.expected_digest:
            return "CSV digest differs from the reference table"
        if text != self.first:
            return "CSV differs from the first sweep of this run"
        return structure_problem(text, cfg)


def structure_problem(text: str, cfg) -> Optional[str]:
    """Shape and range checks that hold for every seed."""
    lines = text.splitlines()
    if not lines or lines[0] != "power_dbm,scheme,mean_rate_bps_hz,std_err,trials":
        return "CSV header changed"
    rows = [line.split(",") for line in lines[1:]]
    grid = {(float(r[0]), r[1]) for r in rows}
    want = {(float(p), s) for p in cfg.power_sweep_dbm for s in cfg.schemes}
    if len(rows) != len(want) or grid != want:
        return "CSV rows do not cover the power x scheme grid exactly once"
    for r in rows:
        mean, err = float(r[2]), float(r[3])
        if not (math.isfinite(mean) and math.isfinite(err) and mean >= 0 and err >= 0):
            return f"non-finite or negative rate in row {','.join(r)}"
        if int(r[4]) != cfg.trials:
            return f"trial count {r[4]} in row {','.join(r)}"
    return None


# ---------------------------------------------------------------------------
# measurements


class Tally:
    """Sweeps attempted and failed, with the first failure's message."""

    def __init__(self, check: CurveCheck, cfg):
        self.check = check
        self.cfg = cfg
        self.attempted = 0
        self.failed = 0
        self.first_problem: Optional[str] = None

    def run(self, workload: str, seed: int) -> Optional[float]:
        """One checked sweep; its run_scenario seconds, or None if it failed."""
        self.attempted += 1
        try:
            text, elapsed = sweep(workload, seed)
            problem = self.check.problem(text, self.cfg)
        except Exception as exc:  # noqa: BLE001  a raising sweep is a failed sweep
            problem = f"{type(exc).__name__}: {exc}"
        if problem is None:
            return elapsed
        self.failed += 1
        if self.first_problem is None:
            self.first_problem = problem
            print(f"bench: sweep {self.attempted} failed: {problem}", file=sys.stderr)
        return None


def setup_seconds(workload: str) -> float:
    """Import-and-parse time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), WORKLOADS[workload][0]],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    where, elapsed = proc.stdout.splitlines()
    if Path(where).resolve().parent != SRC / "fdmimo":
        raise BenchError(f"set-up child imported fdmimo from {where}")
    return float(elapsed)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child, in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _enough(samples: list, tally: Tally) -> bool:
    """MIN_SWEEPS samples, or so many failures that more would not help."""
    return len(samples) >= MIN_SWEEPS or tally.failed > MIN_SWEEPS


def repeat_until(deadline: float, step, samples: list, tally: Tally) -> None:
    """Call `step` until `samples` is long enough and another step would
    end after `deadline` (judged by the previous step's length)."""
    last = 0.0
    while not (_enough(samples, tally) and time.perf_counter() + last > deadline):
        begun = time.perf_counter()
        step()
        last = time.perf_counter() - begun


def timed_run(tally: Tally, workload: str, seed: int, deadline: float) -> Dict[str, List[float]]:
    """Untraced sweeps until `deadline`, each followed by a probe and one
    set-up child, so both kinds of sample spread over the whole run.

    A sweep is rescaled by the mean of the probes on either side of it, a
    set-up child by the probe just before it (see probe.py).  Returns the
    rescaled samples (`sweep_s`, `setup_s`) and the raw ones.
    """
    out: Dict[str, List[float]] = {
        k: [] for k in ("sweep_s", "setup_s", "sweep_wall_s", "setup_wall_s", "probe_s")
    }
    out["probe_s"].append(probe_seconds())

    def step():
        elapsed = tally.run(workload, seed)
        before = out["probe_s"][-1]
        after = probe_seconds()
        out["probe_s"].append(after)
        if elapsed is not None:
            out["sweep_wall_s"].append(elapsed)
            out["sweep_s"].append(elapsed * PROBE_REFERENCE_S * 2.0 / (before + after))
        child = setup_seconds(workload)
        out["setup_wall_s"].append(child)
        out["setup_s"].append(child * PROBE_REFERENCE_S / after)

    repeat_until(deadline, step, out["sweep_s"], tally)
    return out


def traced_sweep(tally: Tally, workload: str, seed: int):
    """One sweep under a fresh tracer; (seconds or None, tracer)."""
    with Tracer(distinct=DISTINCT) as tracer:
        elapsed = tally.run(workload, seed)
    return elapsed, tracer


def exact_counts(tracer) -> Dict[str, tuple]:
    return {qual: tuple(getattr(s, k) for k in EXACT_STATS) for qual, s in tracer.stats.items()}


def layer_metrics(tracer, cfg, overhead_s: float, self_s: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from one traced sweep's counts and median self times."""
    out: Dict[str, float] = {}
    for mod in MODULES:
        prefix = mod + "."
        out[f"{mod}.calls"] = sum(s.calls for q, s in tracer.stats.items() if q.startswith(prefix))
        if mod == "link":
            # run_scenario's span minus every traced child: the trial loop's
            # own Python and link's private helpers.
            out["link.self_s"] = self_s.get("link.run_scenario", 0.0)
        else:
            out[f"{mod}.self_s"] = sum(v for q, v in self_s.items() if q.startswith(prefix))
    for qual, kinds in FUNCTION_METRICS:
        stat = tracer.get(qual)
        for kind in kinds:
            if kind == "self_s":
                out[f"{qual}.self_s"] = self_s.get(qual, 0.0)
            else:
                out[f"{qual}.{kind}"] = getattr(stat, kind)
    out["link.evals"] = evals_per_sweep(cfg)
    out["trace.overhead_s"] = overhead_s
    return out


def layer_units() -> Dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    names = [f"{mod}.{kind}" for mod in MODULES for kind in ("calls", "self_s")]
    names += [f"{qual}.{kind}" for qual, kinds in FUNCTION_METRICS for kind in kinds]
    names += ["link.evals", "trace.overhead_s"]
    return {name: STAT_UNITS[name.rsplit(".", 1)[1]] for name in names}


def trace_run(tally: Tally, workload: str, seed: int, deadline: float):
    """Alternate untraced and traced sweeps until `deadline`.

    Returns (per-layer metrics, whether counts repeated, manifest extras).
    """
    plain: List[float] = []
    traced: List[float] = []
    tracers = []

    def step():
        untraced_s = tally.run(workload, seed)
        elapsed, tracer = traced_sweep(tally, workload, seed)
        if untraced_s is not None and elapsed is not None:
            plain.append(untraced_s)
            traced.append(elapsed)
            tracers.append(tracer)

    repeat_until(deadline, step, traced, tally)
    if not tracers:
        return None, False, {}
    repeat = all(exact_counts(t) == exact_counts(tracers[0]) for t in tracers[1:])
    quals = sorted(set().union(*(t.stats for t in tracers)))
    self_s = {q: statistics.median(t.get(q).self_s for t in tracers) for q in quals}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = layer_metrics(tracers[0], tally.cfg, overhead, self_s)
    functions = {
        q: {
            "calls": tracers[0].get(q).calls,
            "failed": tracers[0].get(q).failed,
            "self_s": round(self_s[q], 6),
        }
        for q in quals
        if tracers[0].get(q).calls
    }
    extras = {"untraced_sweep_s": plain, "traced_sweep_s": traced, "functions": functions}
    return metrics, repeat, extras


# ---------------------------------------------------------------------------
# manifest and entry point


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fdmimo").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def manifest(args, cfg, check: CurveCheck) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "fdmimo_threads": os.environ.get("FDMIMO_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "trials": cfg.trials,
        "evals_per_sweep": evals_per_sweep(cfg),
        "seconds": args.seconds,
        "trace": args.trace,
        "reference": check.kind,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_fdmimo()
        check = CurveCheck(args.workload, args.seed)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    cfg = workload_config(args.workload, args.seed)
    tally = Tally(check, cfg)
    deadline = time.perf_counter() + args.seconds
    tally.run(args.workload, args.seed)  # warm-up: lazy imports, BLAS start-up
    info = manifest(args, cfg, check)
    metrics: Dict[str, dict] = {}
    if args.trace:
        layers, repeat, extras = trace_run(tally, args.workload, args.seed, deadline)
        info.update(extras, counts_repeat=repeat)
        if layers is not None:
            units = layer_units()
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        try:
            samples = timed_run(tally, args.workload, args.seed, deadline)
        except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
            print(f"bench: set-up child failed: {exc}", file=sys.stderr)
            return 2
        info.update(samples, probe_reference_s=PROBE_REFERENCE_S)
        if samples["sweep_s"]:
            sweep_s = statistics.median(samples["sweep_s"])
            values = {
                "setup_s": statistics.median(samples["setup_s"]),
                "sweep_s": sweep_s,
                "evals_per_s": evals_per_sweep(cfg) / sweep_s,
                "peak_rss_mb": peak_rss_mb(),
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    info["first_problem"] = tally.first_problem
    print(json.dumps({"manifest": info}, sort_keys=True))
    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
