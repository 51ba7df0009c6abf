"""Byte-for-byte pin of the rate curves of all four scenarios.

The CSV for a fixed (config, seed) is the behaviour contract: a refactor
of the trial loop must reproduce these files exactly.  They hold every
scheme over the full default power sweep at seed 1 and 6 trials, and were
captured before the trial loop was split into per-run, per-trial and
per-power stages.  Do not regenerate them to make a changed curve pass.
"""

import dataclasses
from pathlib import Path

import pytest

from fdmimo.cli import default_scenario, format_csv
from fdmimo.config import allowed_schemes
from fdmimo.link import run_scenario

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "code, jobs",
    [pytest.param(code, 1, id=code) for code in "abcd"]
    + [pytest.param(code, 2, id=f"{code}-2-workers") for code in "abcd"],
)
def test_golden_csv(code, jobs):
    cfg = dataclasses.replace(default_scenario(code), trials=6)
    assert cfg.seed == 1
    assert cfg.schemes == allowed_schemes(code)
    expected = (DATA / f"golden_{code}.csv").read_text()
    assert format_csv(run_scenario(cfg, jobs=jobs)) == expected
