"""Write trial_rates.json: full-precision per-trial rates of the default configs.

    PYTHONPATH=src python tests/data/make_trial_rates.py

For each scenario a-d and each seed of SEEDS (1 is the seed of the golden
CSVs and, with 7919, of the benchmark's reference CSVs), the first TRIALS
trials of the default config as `run_scenario` scores them: DL + UL rate in
bps/Hz, shaped (trial, power, scheme) in the config's power and scheme
order.  JSON floats round-trip exactly.  `tests/test_trial_rates.py`
holds the code to these rates within the float tolerance the README
states.  Regenerate only with a change that is meant to move the curves.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np

from fdmimo import link

SEEDS = (1, 7919)
TRIALS = 5
OUT = Path(__file__).resolve().parent / "trial_rates.json"


def trial_rates(code: str, seed: int) -> np.ndarray:
    """(trial, power, scheme) rates of the default config of `code` at `seed`."""
    cfg = dataclasses.replace(link.default_scenario(code), seed=seed)
    consts = link._run_constants(cfg, cfg.power_sweep_dbm)
    return np.array([link._trial_rates(cfg, consts, t) for t in range(TRIALS)])


if __name__ == "__main__":
    data = {
        code: {str(seed): trial_rates(code, seed).tolist() for seed in SEEDS} for code in "abcd"
    }
    OUT.write_text(json.dumps(data) + "\n")
