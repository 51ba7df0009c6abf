"""Self-check of the benchmark harness and its tracer.

    python3 -m pytest bench/selfcheck.py

The file name keeps it out of the repository's default `pytest` run; it
needs only this tree's sources and takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

run.load_fdmimo()

# Structural counts are per trial, so two trials keep the checks quick.
TRIALS = 2


@pytest.fixture
def small(monkeypatch):
    for workload, (name, _) in list(run.WORKLOADS.items()):
        monkeypatch.setitem(run.WORKLOADS, workload, (name, TRIALS))


def traced(workload: str, seed: int = 1) -> Tracer:
    plain, _ = run.sweep(workload, seed)
    with Tracer(distinct=run.DISTINCT) as tracer:
        text, _ = run.sweep(workload, seed)
    assert text == plain, "tracing changed the curves"
    return tracer


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat(small, workload):
    first = run.exact_counts(traced(workload))
    assert first["link.run_scenario"][0] == 1
    assert run.exact_counts(traced(workload)) == first


def test_sweep_d_rebuilds_constant_geometry_per_trial(small):
    tracer = traced("sweep_d")
    assert tracer.get("channel.steering_vector").calls == 1280 * TRIALS
    assert tracer.get("beamforming.dft_codebook").calls == 120 * TRIALS


@pytest.mark.parametrize("workload", ["sweep_c", "sweep_d"])
def test_every_digital_canceller_fit_is_refit(small, workload):
    stat = traced(workload).get("cancellation.train_digital_canceller")
    assert stat.calls > 0 and stat.fail_ratio == 1.0


def test_tracer_restores_every_binding():
    import fdmimo
    from fdmimo import beamforming, cancellation, cli, link

    before = (
        fdmimo.run_scenario,
        link.run_scenario,
        link.dft_codebook,
        beamforming.dft_codebook,
        cancellation.CancellerState.matrix,
        cli.parse_config,
    )
    with Tracer():
        assert link.dft_codebook is beamforming.dft_codebook is not before[3]
    after = (
        fdmimo.run_scenario,
        link.run_scenario,
        link.dft_codebook,
        beamforming.dft_codebook,
        cancellation.CancellerState.matrix,
        cli.parse_config,
    )
    assert after == before


def test_unknown_function_reports_zero():
    with Tracer() as tracer:
        pass
    assert tracer.get("channel.no_such_function").calls == 0


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_default_seed_matches_reference(workload):
    cfg = run.workload_config(workload, 1)
    check = run.CurveCheck(workload, 1)
    assert check.kind == "csv"
    text, _ = run.sweep(workload, 1)
    assert check.problem(text, cfg) is None


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_traced_run_prints_every_layer_metric():
    proc = _bench(BENCH.parent, "--workload", "sweep_d", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    *_, manifest_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    manifest = json.loads(manifest_line)["manifest"]
    assert result["correct"] and result["failed"] == 0
    assert manifest["counts_repeat"] and manifest["reference"] == "sha256"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.layer_units()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "sweep_a", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
