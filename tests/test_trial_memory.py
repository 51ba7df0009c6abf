"""Memory guard: one trial holds no packet-length array beyond its power point.

The per-power stages of a, c and d build packet-length bursts and slots
and shrink them to small matrices before the next power; only those
matrices reach the trial's rate pass.  Stacking the bursts of a whole
trial instead keeps every power's arrays alive at once, which the curves
and the traced call counts do not show.  The `tracemalloc` peak of one
warm `_trial_rates` call does.

Measured as below (trial 0 of each default config, after a warm-up call
of the same trial) on Linux with Python 3.11, numpy 2.4 and OpenBLAS on
one thread: a peaks at 1.41 MB, c at 1.45 MB and d at 0.48 MB.  A version
that moved c's and d's TX distortion of every power into the rate pass
peaked at 5.74 MB (c) and 1.63 MB (d), and one that kept every power's
bursts of a alive for the trial peaked at 5.26 MB (a).  Each ceiling is
about twice the measured peak.
"""

import tracemalloc

import pytest

from fdmimo import link
from fdmimo.cli import default_scenario

PEAK_CEILING_MB = {"a": 2.8, "c": 2.9, "d": 1.0}


@pytest.mark.parametrize("code", sorted(PEAK_CEILING_MB))
def test_one_trial_peaks_below_its_ceiling(code):
    cfg = default_scenario(code)
    consts = link._run_constants(cfg)
    link._trial_rates(cfg, consts, 0)  # warm: lazy set-up is not the trial's
    tracemalloc.start()
    try:
        link._trial_rates(cfg, consts, 0)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_CEILING_MB[code], f"scenario {code}: {peak:.2f} MB at the peak"
