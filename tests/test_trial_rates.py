"""Per-trial rates at full precision, within the stated float tolerance.

The golden CSVs print six significant digits, so they cannot see a change
of factorization that moves a rate in its last bits, nor one that moves it
by 1e-7.  This holds every per-trial rate of the default configs to the
reference that `data/make_trial_rates.py` wrote, within

    |rate - ref| <= 1e-9 * max(1, |ref|)  bps/Hz.

Reordered float sums and a different solver for the same least-squares
problem move rates by 1e-14 to 1e-11, while the standard error of a
default run's curve points is about 0.01 bps/Hz or more.  1e-9 sits well
above the first and about seven orders of magnitude below the second.
"""

import json
import runpy
from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).resolve().parent / "data"
GENERATOR = runpy.run_path(str(DATA / "make_trial_rates.py"))
REFERENCE = json.loads((DATA / "trial_rates.json").read_text())
TOLERANCE = 1e-9


@pytest.mark.parametrize("seed", GENERATOR["SEEDS"])
@pytest.mark.parametrize("code", "abcd")
def test_trial_rates_match_the_reference_within_the_tolerance(code, seed):
    ref = np.array(REFERENCE[code][str(seed)])
    got = GENERATOR["trial_rates"](code, seed)
    assert got.shape == ref.shape
    bound = TOLERANCE * np.maximum(1.0, np.abs(ref))
    worst = np.unravel_index(np.argmax(np.abs(got - ref) - bound), ref.shape)
    assert np.all(np.abs(got - ref) <= bound), f"(trial, power, scheme) {worst}"
