"""Scenario c receives each full-duplex probe slot once per trial, and
points each full-duplex scheme at every power from it once per trial.

The probe burst at power p is sqrt(p) times a burst fixed per trial, and
the receive chain is linear in that amplitude: `apply_tx_chain` drives
every chain at a fixed level, and the digital canceller projects onto the row
space of the burst's regressors, which the amplitude does not change.
These tests check that identity at its two steps, the second moments
that carry the staged slot to each power, and that the staging holds: the
canceller is fit once per (trial, probe), not once per power, and the TX
chain runs once per probe, once per full-duplex pointing and once for HD.

The full-duplex precoders of every power are estimated and zero-forced in
one stack per (trial, scheme) (`_c_fd_precoders`).  They must equal, bit
for bit, the per-power pass they replace, written out here as an oracle,
also where clipped chains make some powers' estimates singular; and
`zf_precoder` runs once per precoder the trial keeps for all its powers.
"""

import dataclasses
from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmimo import config, link
from fdmimo.beamforming import SingularChannelError, zf_precoder
from fdmimo.cli import default_scenario
from fdmimo.config import TxImpairmentConfig, dbm_to_watt
from fdmimo.estimation import mmse_shrink
from fdmimo.impairments import apply_tx_chain
from fdmimo.link import run_scenario, run_trial

seeds = st.integers(0, 2**32 - 1)


@st.composite
def impairment_configs(draw):
    """Either impairment stage switched off or on, the PA with an infinite
    intercept or one above the drive level."""
    drive = draw(st.floats(-40.0, 10.0))
    iip3 = draw(st.one_of(st.just(np.inf), st.floats(drive + 10.0, drive + 40.0)))
    return TxImpairmentConfig(
        iip3_dbm=iip3, irr_db=draw(st.floats(10.0, 60.0)), enabled=draw(st.booleans()),
        drive_dbm=drive,
    )


@settings(max_examples=80, deadline=None)
@given(
    cfg=impairment_configs(),
    chains=st.integers(1, 8),
    samples=st.integers(1, 200),
    silent=st.lists(st.booleans(), min_size=8, max_size=8),
    amp_db=st.floats(-60.0, 60.0),
    seed=seeds,
)
def test_tx_chain_is_homogeneous_in_the_amplitude(cfg, chains, samples, silent, amp_db, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((chains, samples)) + 1j * rng.standard_normal((chains, samples))
    x[np.array(silent[:chains])] = 0.0  # zero-power chains stay zero
    a = 10.0 ** (amp_db / 20.0)
    np.testing.assert_allclose(
        apply_tx_chain(a * x, cfg), a * apply_tx_chain(x, cfg), rtol=1e-12, atol=0.0
    )


@settings(max_examples=80, deadline=None)
@given(
    chains=st.integers(1, 8),
    samples=st.integers(1, 200),
    silent=st.lists(st.sampled_from(["", "x", "y", "xy"]), min_size=8, max_size=8),
    amp_db=st.floats(-60.0, 60.0),
    seed=seeds,
)
def test_probe_moments_give_the_power_at_any_amplitude(chains, samples, silent, amp_db, seed):
    # Per row, mean |a x + y|^2 from the moments of (x, y) at p = a^2,
    # with rows where x, y or both are zero.
    rng = np.random.default_rng(seed)
    x, y = (
        rng.standard_normal((2, chains, samples)) + 1j * rng.standard_normal((2, chains, samples))
    )
    for row, which in enumerate(silent[:chains]):
        x[row] *= "x" not in which
        y[row] *= "y" not in which
    p_w = 10.0 ** (amp_db / 10.0)
    got = link._power_at(link._moments(x, y), p_w)
    ref = np.mean(np.abs(np.sqrt(p_w) * x + y) ** 2, axis=1)
    assert np.all(got >= 0.0)
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0.0)


def test_staged_probe_matches_the_per_power_receive():
    """Against `_fd_receive` on the probe burst at each power, as every
    slot was received before the staging: residual SI power per chain
    within 1e-9 relative, and the same saturated chains.

    The staged and per-power slots sum the same terms in another order
    (sqrt(p) s + u against h_si x_tx - C x + pilot + noise), fit the
    canceller on b instead of sqrt(p) b, and the staged powers come from
    second moments instead of the samples.  Over 40 default trials at every
    power the residual SI power stayed within 4.3e-12 relative per chain
    and 1.3e-12 over all chains, the level that sets the rate; 1e-9 leaves
    room for other BLAS builds and is still far below anything the
    six-digit CSV shows.
    """
    cfg = default_scenario("c")
    bud = cfg.budget
    consts = link._run_constants(cfg)
    plans = [config._PLANS["c"][s] for s in cfg.schemes]
    checked = 0
    for trial in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(trial,)))
        ctx = link._prepare_c(cfg, consts, link._draw_c(cfg, rng), plans)
        pil_rx = np.sqrt(bud.ul_gain) * (ctx["g_slots"][5] @ consts["ul_joint"].matrix)
        noise_b = np.sqrt(bud.bs_noise_w) * ctx["n_burst"]
        for plan, (burst, _, _) in ctx["probe"].items():
            taps = ctx["taps"][plan.taps]
            for power_dbm in cfg.power_sweep_dbm:
                p_w = dbm_to_watt(power_dbm)
                x = np.sqrt(p_w) * burst
                x_tx = apply_tx_chain(x, cfg.impairments) if plan.impaired else x
                ref_si, _, ref_sat = link._fd_receive(
                    taps, x, x_tx, pil_rx, noise_b, plan.digital, bud.rx_saturation_w
                )
                got, saturated = link._probe_receive(ctx, plan, p_w, bud.rx_saturation_w)
                ref = np.mean(np.abs(ref_si) ** 2, axis=1)
                np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0.0)
                assert np.array_equal(saturated, ref_sat)
                checked += 1
    # Both full-duplex schemes, at every power of every trial.
    assert checked == 3 * 2 * len(cfg.power_sweep_dbm)


def test_scenario_c_fits_the_canceller_once_per_trial_and_probe(count_calls):
    cfg = dataclasses.replace(default_scenario("c"), trials=2)
    probes = 2  # proposed and benchmark; ideal-csi and hd have no probe
    fits = count_calls(link, "cancel_slot")
    run_scenario(cfg, jobs=1)
    # A ceiling, not a count: staging that fits less often still passes.
    # The floor keeps the ceiling from passing on a path that counts nothing.
    assert 0 < len(fits) <= cfg.trials * probes


def test_scenario_c_runs_the_tx_chain_once_per_burst_it_scores(count_calls):
    # Per trial: one probe burst per full-duplex scheme, one pointing per
    # full-duplex scheme and power, and one HD burst, scaled to each power.
    cfg = dataclasses.replace(default_scenario("c"), trials=2)
    calls = count_calls(link, "apply_tx_chain")
    run_scenario(cfg, jobs=1)
    fd, hd = 2, 1  # proposed and benchmark; ideal-csi is unimpaired
    assert 0 < len(calls) <= cfg.trials * (fd + fd * len(cfg.power_sweep_dbm) + hd)


def test_scenario_c_zero_forces_once_per_trial_and_precoder(count_calls):
    # Per trial: one probe precoder per full-duplex scheme, the HD and the
    # ideal-CSI precoders, and one stack of every power per full-duplex
    # scheme.  A pass that zero-forces each power makes 2 + 1 + 1 + 2 x 9.
    cfg = dataclasses.replace(default_scenario("c"), trials=2)
    calls = count_calls(link, "zf_precoder")
    run_scenario(cfg, jobs=1)
    probes, hd, ideal, fd = 2, 1, 1, 2
    assert 0 < len(calls) <= cfg.trials * (probes + hd + ideal + fd)


def _saturating_c():
    """Default c with 40 dB of SI isolation at 0 to 60 dBm: from 50 dBm on
    the probe slot clips receive chains, whose estimate rows are zeroed,
    and the full-duplex ZF turns singular at some powers of a trial only."""
    cfg = default_scenario("c")
    return dataclasses.replace(
        cfg, budget=dataclasses.replace(cfg.budget, si_isolation_db=40.0),
        power_sweep_dbm=(0.0, 20.0, 40.0, 50.0, 60.0), trials=4,
    )


def _per_power_precoder(cfg, consts, ctx, plan, p_w):
    """The full-duplex precoder of `plan` at `p_w` as a pass over one power
    at a time computes it, or None where its estimate is singular."""
    bud = cfg.budget
    resid_w, saturated = link._probe_receive(ctx, plan, p_w, bud.rx_saturation_w)
    noise_eff = bud.bs_noise_w + float(np.mean(resid_w))
    pil = consts["ul_single" if plan.csi == "sequential" else "ul_joint"]
    shrink = mmse_shrink(pil, noise_eff, bud.ul_gain)
    amp = np.sqrt(noise_eff)
    g_hat = np.hstack([shrink * (yp + amp * n_p) for yp, n_p in ctx["probe"][plan][1]])
    g_hat = g_hat / np.sqrt(bud.ul_gain) * np.sqrt(bud.dl_gain)
    g_hat[saturated, :] = 0.0
    try:
        return zf_precoder(g_hat.T)
    except SingularChannelError:
        return None


def _singular_staged_precoders(cfg):
    """Check every staged full-duplex precoder of `cfg`'s trials against
    `_per_power_precoder`, bit for bit, and count the singular ones."""
    consts = link._run_constants(cfg)
    plans = [config._PLANS["c"][s] for s in cfg.schemes]
    checked = singular = 0
    for trial in range(cfg.trials):
        ctx = link._prepare_c(cfg, consts, link._draw_c(cfg, link._trial_rng(cfg, trial)), plans)
        assert ctx["fd_w"].keys() == ctx["probe"].keys()
        for plan, staged in ctx["fd_w"].items():
            for power_dbm in cfg.power_sweep_dbm:
                p_w = dbm_to_watt(power_dbm)
                ref = _per_power_precoder(cfg, consts, ctx, plan, p_w)
                got = staged[p_w]
                if ref is None:
                    assert got is None
                    singular += 1
                else:
                    assert np.array_equal(got, ref)
                    assert not got.flags.writeable
                checked += 1
    # Both full-duplex schemes, at every power of every trial.
    assert checked == cfg.trials * 2 * len(cfg.power_sweep_dbm)
    return singular, checked


def test_staged_fd_precoders_are_the_per_power_ones():
    # The default never clips; the saturating config does at some powers.
    assert _singular_staged_precoders(dataclasses.replace(default_scenario("c"), trials=3))[0] == 0
    singular, checked = _singular_staged_precoders(_saturating_c())
    assert 0 < singular < checked


def test_saturating_c_scores_each_power_as_run_trial_does():
    """Where clipping makes the full-duplex ZF singular at some powers of a
    trial, those points score zero and the trial's other powers keep
    their precoders, each point equal to its `run_trial`."""
    cfg = _saturating_c()
    points = run_scenario(cfg, jobs=1)
    rates = np.zeros((cfg.trials, len(cfg.power_sweep_dbm), len(cfg.schemes)))
    for t, (ip, p), (isch, scheme) in product(
        range(cfg.trials), enumerate(cfg.power_sweep_dbm), enumerate(cfg.schemes)
    ):
        rates[t, ip, isch] = sum(run_trial(cfg, p, scheme, link._trial_rng(cfg, t)))
    for point in points:
        vals = rates[:, cfg.power_sweep_dbm.index(point.power_dbm), cfg.schemes.index(point.scheme)]
        assert point.mean_rate_bps_hz == vals.mean(), point
        assert point.std_err == float(vals.std(ddof=1) / np.sqrt(cfg.trials)), point
    proposed = {p.power_dbm: p.mean_rate_bps_hz for p in points if p.scheme == "proposed"}
    assert proposed[60.0] == 0.0
    assert all(proposed[p] > 0.0 for p in (0.0, 20.0, 40.0))
