"""The benchmark's correctness gate, in the tier-1 suite.

`bench/run.py` rejects a sweep whose CSV differs from the stored reference
of its workload, a bundled scenario run at the trial count its reference
table names.  The golden tests pin 6-trial runs only, so this holds the
sweeps at seed 1, the bundled configs' own, to `bench/reference` byte for
byte, and a change that moves a curve fails here before it fails the
benchmark.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from fdmimo.cli import format_csv, parse_config
from fdmimo.link import run_scenario

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"


@pytest.mark.parametrize("workload", ["sweep_a", "sweep_c", "sweep_d"])
def test_seed_1_sweep_is_the_bench_reference(workload):
    trials = json.loads((REFERENCE / f"{workload}.json").read_text())["trials"]
    cfg = dataclasses.replace(parse_config(f"scenario_{workload[-1]}"), seed=1, trials=trials)
    expected = (REFERENCE / f"{workload}.seed1.csv").read_text()
    assert format_csv(run_scenario(cfg)) == expected
