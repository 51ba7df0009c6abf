"""Scenario d is staged by what each quantity depends on.

The beam grid (codeword angles, DOA sweep, codebook and each codeword's
analog beamformer) is fixed by the config and built once per run.  The
ideal-CSI and half-duplex pointings are fixed per trial, and a per-trial
memo keyed by codeword holds the channels and cancellers every pass and
power share.  Both the half-duplex and the full-duplex training slots
take their angle from one step, `_d_angle`.  These tests hold the grid to
one build per run, pin that step, and check on random small configs that
the memo leaks nothing across powers or scheme subsets: `run_scenario`
equals `run_trial` exactly.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmimo import beamforming, estimation, link
from fdmimo.cli import default_scenario
from fdmimo.config import ArchitectureConfig, allowed_schemes
from fdmimo.link import run_scenario, run_trial

seeds = st.integers(0, 2**32 - 1)


def test_scenario_d_builds_its_beam_grid_once_per_run(count_calls):
    cfg = dataclasses.replace(default_scenario("d"), trials=2)
    steering = count_calls(link, "steering_vector")
    books = count_calls(link, "dft_codebook")
    inner = count_calls(beamforming, "dft_codebook")  # as assemble_analog_bf would see it
    run_scenario(cfg, jobs=1)
    beams = cfg.arch.tx_subarray
    # Ceilings, not counts.  One DOA sweep per run, and one codebook, which
    # every codeword's beamformer reads; rebuilding them for every (power,
    # scheme) made 1280 and 120 calls per trial, and rebuilding the codebook
    # in each beamformer 1 + beams per run.
    assert len(steering) <= beams
    assert len(books) + len(inner) <= 1


@settings(max_examples=40, deadline=None)
@given(
    chains=st.integers(1, 4),
    samples=st.integers(1, 50),
    angle=st.floats(-np.pi / 3, np.pi / 3),
    snr_db=st.floats(-20.0, 40.0),
    seed=seeds,
)
def test_d_angle_is_the_sweep_and_refinement_or_the_first_codeword(
    chains, samples, angle, snr_db, seed
):
    # With every chain alive, as in the half-duplex slot, the angle is the
    # sweep over every chain refined by the first chain pair.  With every
    # chain clipped, the training slot is lost and d points the first
    # codeword.
    cfg = default_scenario("d")
    cfg = dataclasses.replace(cfg, arch=dataclasses.replace(cfg.arch, n_rx=chains, n_rx_rf=chains))
    consts = link._run_constants(cfg)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((chains, samples)) + 1j * rng.standard_normal((chains, samples))
    a = np.exp(1j * np.pi * np.arange(chains) * np.sin(angle))[:, None]
    z = 10.0 ** (snr_db / 20.0) * a * rng.standard_normal((1, samples)) + noise
    coarse = estimation.doa_estimate(z, consts["d_sweep"], consts["d_angles"])
    expected = link._interferometric_doa(z, np.arange(chains), coarse)
    assert link._d_angle(consts, z, np.ones(chains, dtype=bool)) == expected
    clipped = link._d_angle(consts, z, np.zeros(chains, dtype=bool))
    assert clipped == float(consts["d_angles"][0])


@st.composite
def small_d_configs(draw):
    """Scenario d with 1-3 transmit chains of 1-8 antennas each, any phase
    resolution and tap count, 2-3 powers and a scheme subset.  One power
    saturates: at 50 dBm about half the full-duplex training slots clip a
    chain, at 55 dBm all do and most clip both.  A weak UL training power
    scatters the HD angle estimate, so HD often points another codeword
    than ideal CSI and the memo serves several codewords per trial."""
    n_tx_rf = draw(st.integers(1, 3))
    arch = ArchitectureConfig(
        n_tx_rf * draw(st.integers(1, 8)), 2, n_tx_rf, 2, phase_bits=draw(st.integers(1, 4)),
        num_taps=draw(st.integers(0, 2 * n_tx_rf)),
    )
    others = st.sampled_from([0.0, 15.0, 30.0, 45.0])
    powers = draw(st.lists(others, min_size=1, max_size=2, unique=True))
    powers.append(draw(st.sampled_from([50.0, 55.0])))
    schemes = draw(st.lists(st.sampled_from(allowed_schemes("d")), min_size=1, unique=True))
    base = default_scenario("d")
    budget = dataclasses.replace(base.budget, ul_power_dbm=draw(st.sampled_from([-40.0, 10.0])))
    return dataclasses.replace(
        base, arch=arch, budget=budget, trials=1, seed=draw(seeds), packet_symbols=60,
        power_sweep_dbm=tuple(draw(st.permutations(powers))), schemes=tuple(schemes),
    )


@settings(max_examples=30, deadline=None)
@given(cfg=small_d_configs())
def test_small_d_configs_score_sane_rates_and_run_scenario_is_run_trial(cfg):
    points = run_scenario(cfg)
    assert len(points) == len(cfg.schemes) * len(cfg.power_sweep_dbm)
    for point in points:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
        dl, ul = run_trial(cfg, point.power_dbm, point.scheme, rng)
        assert np.isfinite(dl) and dl >= 0.0 and ul == 0.0, point
        assert point.mean_rate_bps_hz == dl + ul, point
    # Ideal CSI, unimpaired: more power never costs rate (the slack is the
    # one `run_scenario` itself allows).  Points come sorted by power.
    ideal = [p.mean_rate_bps_hz for p in points if p.scheme == "ideal-csi"]
    assert all(b >= a - 1e-9 for a, b in zip(ideal, ideal[1:]))
