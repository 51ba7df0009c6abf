"""Every config the CLI accepts runs: its points are finite and
non-negative, or the run raises a TrialError that `run_trial` reproduces.

Configs are drawn over each scenario's accepted geometry, as config
objects merged over the bundled ones by `cli._scenario_config`: a and c
are fully digital, c with as many transmit as receive antennas, b splits
its arrays into whole sub-arrays, and d receives on every antenna's own
chain.  Taps range over [0, n_tx_rf * n_rx_rf], and powers over the
bundled sweep widened by 60 dBm each way.  Trials run in the calling
process (`jobs=1`), so each draw also sets that process up for trials.
"""

import re

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fdmimo import allowed_schemes
from fdmimo.cli import ConfigError, _scenario_config, default_scenario
from fdmimo.link import TrialError, run_scenario, run_trial


def _geometry(draw, scenario: str) -> dict:
    chains = st.integers(1, 3)
    if scenario in "ac":
        n_tx = n_tx_rf = draw(st.integers(1, 6))
        n_rx = n_rx_rf = n_tx if scenario == "c" else draw(st.integers(1, 6))
    else:
        n_tx_rf, n_rx_rf = draw(chains), draw(chains)
        n_tx = n_tx_rf * draw(st.integers(1, 16))
        n_rx = n_rx_rf * (1 if scenario == "d" else draw(st.integers(1, 8)))
    arch = {"n_tx": n_tx, "n_rx": n_rx, "n_tx_rf": n_tx_rf, "n_rx_rf": n_rx_rf,
            "num_taps": draw(st.integers(0, n_tx_rf * n_rx_rf))}
    if scenario in "bd":
        arch["phase_bits"] = draw(st.integers(1, 4))
    return arch


@st.composite
def accepted_configs(draw):
    scenario = draw(st.sampled_from("abcd"))
    bundled = default_scenario(scenario).power_sweep_dbm
    arch = _geometry(draw, scenario)
    powers = st.integers(int(min(bundled)) - 60, int(max(bundled)) + 60).map(float)
    raw = {
        "scenario": scenario,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "trials": draw(st.integers(1, 3)),
        "power_sweep_dbm": draw(st.lists(powers, min_size=1, max_size=3, unique=True)),
        "schemes": draw(
            st.lists(st.sampled_from(allowed_schemes(scenario)), min_size=1, unique=True)
        ),
        "architecture": arch,
        "packet_symbols": draw(st.integers(3 * arch["n_tx_rf"], 200)),
    }
    if scenario == "c":
        raw["num_ue"] = draw(st.integers(1, min(4, arch["n_tx_rf"])))
    if scenario in "ab":
        antennas = draw(st.integers(1, 4))
        raw.update(dl_ue_antennas=draw(st.integers(1, 4)), ul_ue_antennas=antennas,
                   ul_streams=draw(st.integers(1, antennas)))
    try:
        return _scenario_config(raw)
    except ConfigError:
        assume(False)  # too few HD pilots for the packet, say


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cfg=accepted_configs())
def test_an_accepted_config_runs_or_raises_a_trial_error_that_run_trial_reproduces(cfg):
    try:
        points = run_scenario(cfg, jobs=1)
    except TrialError as exc:
        named = re.match(r"scenario \w, seed \d+, trial (\d+), power (\S+) dBm, scheme (\S+?):",
                         str(exc))
        if named is None:  # the fault lies in the trial's set-up or across its powers
            return
        trial, power, scheme = int(named[1]), float(named[2]), named[3]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(trial,)))
        try:
            dl, ul = run_trial(cfg, power, scheme, rng)
        except Exception:  # noqa: BLE001  any fault reproduces it
            return
        assert not np.isfinite(dl + ul), f"{exc} did not reproduce: {dl}, {ul}"
        return
    assert len(points) == len(cfg.schemes) * len(cfg.power_sweep_dbm)
    for point in points:
        assert np.isfinite(point.mean_rate_bps_hz) and point.mean_rate_bps_hz >= 0.0, point
        assert np.isfinite(point.std_err) and point.std_err >= 0.0, point
