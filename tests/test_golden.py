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

from fdmimo.cli import format_csv
from fdmimo.link import allowed_schemes, default_scenario, run_scenario

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("code", "abcd")
def test_golden_csv(code):
    cfg = dataclasses.replace(default_scenario(code), trials=6)
    assert cfg.seed == 1
    assert cfg.schemes == allowed_schemes(code)
    expected = (DATA / f"golden_{code}.csv").read_text()
    assert format_csv(run_scenario(cfg)) == expected
