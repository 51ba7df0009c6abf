"""Scenario orchestration: rates, configs, determinism, invariants."""

import dataclasses
import itertools

import numpy as np
import pytest
from conftest import SECTIONS, UNREAD

from fdmimo import config, link
from fdmimo.beamforming import SingularChannelError, zf_precoder
from fdmimo.channel import complex_gaussian
from fdmimo.cli import default_scenario, format_csv
from fdmimo.config import (
    AgingParams,
    ArchitectureConfig,
    LinkBudget,
    ScenarioConfig,
    allowed_schemes,
    complexity_report,
)
from fdmimo.link import TrialError, dl_rate, run_scenario, run_trial, ul_rate


def test_dl_rate_frozen_example():
    # log2 det(I + 2 * (I/sqrt(2))(I/sqrt(2))^H) = log2 det(2 I) = 2
    h = np.eye(2, dtype=complex)
    w = np.eye(2, dtype=complex) / np.sqrt(2)
    assert dl_rate(h, w, 2.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    # an interference covariance equal to the noise halves the SINR
    assert dl_rate(h, w, 2.0, 1.0, interference_cov=np.eye(2)) == pytest.approx(
        2.0 * np.log2(1.5), rel=1e-12
    )
    with pytest.raises(ValueError):
        dl_rate(h, w, -1.0, 1.0)
    with pytest.raises(ValueError):
        dl_rate(h, w, 1.0, 0.0)


def test_ul_rate_scalar_closed_form():
    # any nonzero scalar combiner gives log2(1 + p |h|^2 / noise)
    h = np.array([[2.0 + 0j]])
    noise = np.array([[4.0 + 0j]])
    for u0 in (1.0, 0.7, 2.0 - 1.0j):
        rate = ul_rate(h, np.array([[u0]]), 3.0, noise)
        assert rate == pytest.approx(np.log2(1.0 + 3.0 * 4.0 / 4.0), rel=1e-12)
    with pytest.raises(ValueError):
        ul_rate(h, np.array([[1.0]]), -1.0, noise)


def test_ul_rate_splits_power_across_streams():
    # two orthogonal unit streams at total power 2: each stream gets 1
    h = np.eye(2, dtype=complex)
    u = np.eye(2, dtype=complex)
    rate = ul_rate(h, u, 2.0, np.eye(2, dtype=complex))
    assert rate == pytest.approx(2.0 * np.log2(2.0), rel=1e-12)


def _sinr_rate(cfg, rows, w, p_w):
    """c's and d's DL rate of one pointing with no TX distortion, through
    the rate pass that scores every item of a trial."""
    item = (p_w, rows, w, np.zeros(len(rows)))
    (dl, ul), = link._rate_dl(cfg, {}, [item])
    assert ul == 0.0
    return dl


def test_sinr_rate_of_one_ue_is_dl_rate():
    # c's and d's per-UE SINR rate, one UE and no burst: the public DL rate.
    cfg = default_scenario("d")
    rng = np.random.default_rng(5)
    for n in (1, 2, 8):
        h = np.sqrt(cfg.budget.dl_gain) * complex_gaussian(rng, 1, n)
        w = complex_gaussian(rng, n, 1)
        w /= np.linalg.norm(w)
        for p_w in (1e-3, 1.0, 30.0):
            expected = dl_rate(h, w, p_w, cfg.budget.ue_noise_w)
            assert _sinr_rate(cfg, h, w, p_w) == pytest.approx(expected, rel=1e-12)
    # A scheme left without a precoder scores 0.
    assert link._rate_dl(cfg, {}, [None]) == [(0.0, 0.0)]


def test_sinr_rate_under_zero_forcing_sums_the_one_ue_rates():
    # A zero-forcing precoder leaves no inter-UE interference, so K UEs
    # score the sum of each UE's rate on its own stream.
    cfg = default_scenario("c")
    rng = np.random.default_rng(6)
    for k, n in ((1, 1), (2, 4), (4, 8)):
        rows = np.sqrt(cfg.budget.dl_gain) * complex_gaussian(rng, k, n)
        w = zf_precoder(rows)
        for p_w in (1e-3, 1.0, 30.0):
            alone = sum(
                _sinr_rate(cfg, rows[j : j + 1], w[:, j : j + 1], p_w) for j in range(k)
            )
            assert _sinr_rate(cfg, rows, w, p_w) == pytest.approx(alone, rel=1e-12)


def test_projection_budget_follows_the_digital_stage():
    # With a digital stage the residual SI may reach half the saturation
    # limit; without one it must stay under the BS noise floor.  At 0 dBm
    # the weak residual directions (1e-8 W per watt radiated) pass the
    # first budget and break the second.
    bud = LinkBudget()
    rng = np.random.default_rng(11)
    u, _, vh = np.linalg.svd(complex_gaussian(rng, 4, 4))
    r = u @ np.diag([1.0, 1.0, 1e-4, 1e-4]) @ vh
    taps = link._Taps(r, np.zeros((4, 4), dtype=complex), r)  # no taps on the SI channel r
    w = complex_gaussian(rng, 4, 1)
    w /= np.linalg.norm(w)
    p_w = 1e-3
    digital = config._Plan()
    out = link._project(bud, digital, taps, w, p_w)
    assert out is not None
    assert p_w * np.linalg.norm(r @ out) ** 2 <= 0.5 * bud.rx_saturation_w
    assert p_w * np.linalg.norm(r @ out) ** 2 > bud.bs_noise_w
    assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-12)
    assert link._project(bud, dataclasses.replace(digital, digital=False), taps, w, p_w) is None


def test_link_budget_gains():
    budget = LinkBudget()
    assert budget.dl_gain == pytest.approx(1e-10, rel=1e-12)
    assert budget.si_gain == pytest.approx(1e-4, rel=1e-12)
    assert budget.bs_noise_w == pytest.approx(1e-14, rel=1e-12)
    assert budget.ue_noise_w == pytest.approx(1e-12, rel=1e-12)
    with pytest.raises(ValueError):
        LinkBudget(dl_pathloss_db=-5.0)


def test_allowed_schemes_frozen():
    assert allowed_schemes("a") == (
        "proposed",
        "proposed-ideal",
        "benchmark",
        "benchmark-ideal",
        "hd",
    )
    assert allowed_schemes("b") == ("proposed", "benchmark", "hd")
    assert allowed_schemes("c") == ("proposed", "benchmark", "ideal-csi", "hd")
    assert allowed_schemes("d") == ("proposed", "benchmark", "ideal-csi", "hd")
    with pytest.raises(ValueError):
        allowed_schemes("e")


def test_default_scenarios_validate():
    for code in "abcd":
        cfg = default_scenario(code)
        assert cfg.scenario == code
        assert set(cfg.schemes) <= set(allowed_schemes(code))
    assert default_scenario("a").arch.num_taps == 12
    assert default_scenario("b").arch.num_taps == 4
    assert default_scenario("c").arch.num_taps == 32
    assert default_scenario("d").arch.num_taps == 2
    with pytest.raises(ValueError):
        default_scenario("x")


def test_complexity_report_frozen():
    report = complexity_report(default_scenario("b").arch)
    assert report == {
        "phase_shifters_partially_connected": 96,
        "phase_shifters_fully_connected": 320,
        "taps_full_antenna": 2048,
        "taps_full_chain": 8,
        "taps_configured": 4,
    }
    report_a = complexity_report(default_scenario("a").arch)
    assert report_a["phase_shifters_partially_connected"] == 8
    assert report_a["taps_full_chain"] == 16
    assert report_a["taps_configured"] == 12


def test_scenario_config_validation():
    base = default_scenario("a")
    with pytest.raises(ValueError):
        dataclasses.replace(base, schemes=("ideal-csi",))  # not defined for a
    with pytest.raises(ValueError):
        dataclasses.replace(base, trials=0)
    with pytest.raises(ValueError):
        dataclasses.replace(base, seed=-1)
    with pytest.raises(ValueError):
        dataclasses.replace(base, power_sweep_dbm=())
    with pytest.raises(ValueError):
        dataclasses.replace(base, power_sweep_dbm=(float("nan"),))
    with pytest.raises(ValueError):
        dataclasses.replace(base, ul_streams=3, ul_ue_antennas=2)
    with pytest.raises(ValueError):
        dataclasses.replace(base, packet_symbols=8)  # canceller basis needs 3 per chain
    with pytest.raises(ValueError):
        dataclasses.replace(base, dl_data_fraction=0.0)
    # a and c are fully digital: one RF chain per antenna on both sides.
    digital = "one RF chain per antenna"
    with pytest.raises(ValueError, match=digital):
        dataclasses.replace(base, arch=default_scenario("b").arch)
    with pytest.raises(ValueError, match=digital):
        dataclasses.replace(base, arch=ArchitectureConfig(8, 8, 4, 4))
    with pytest.raises(ValueError, match=digital):
        dataclasses.replace(default_scenario("c"), arch=ArchitectureConfig(8, 8, 8, 4, num_taps=32))
    with pytest.raises(ValueError):
        dataclasses.replace(default_scenario("c"), aging=None)
    with pytest.raises(ValueError):
        dataclasses.replace(default_scenario("c"), num_ue=10)


def test_hd_pilot_len():
    cfg = default_scenario("c")
    assert cfg.hd_pilot_len == 40
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, hd_pilot_fraction=0.0001)


def test_run_trial_deterministic():
    cfg = default_scenario("a")
    first = run_trial(cfg, 20.0, "proposed", np.random.default_rng(7))
    second = run_trial(cfg, 20.0, "proposed", np.random.default_rng(7))
    assert first == second
    assert np.isfinite(first).all()
    with pytest.raises(ValueError):
        run_trial(cfg, 20.0, "ideal-csi", np.random.default_rng(7))


def test_run_trial_hd_has_both_directions():
    dl, ul = run_trial(default_scenario("a"), 20.0, "hd", np.random.default_rng(11))
    assert dl > 0.0 and ul > 0.0


def test_run_trial_downlink_only_scenarios():
    for code in "cd":
        cfg = default_scenario(code)
        for scheme in cfg.schemes:
            dl, ul = run_trial(cfg, 20.0, scheme, np.random.default_rng(5))
            assert ul == 0.0
            assert dl >= 0.0


def test_run_scenario_matches_run_trial():
    # run_scenario scores every scheme of a trial from one shared context;
    # run_trial builds the context for a single (power, scheme).  They must
    # agree exactly, in every scenario.
    for code in "abcd":
        base = default_scenario(code)
        powers = base.power_sweep_dbm[::4]
        cfg = dataclasses.replace(base, trials=1, power_sweep_dbm=powers)
        points = run_scenario(cfg)
        assert len(points) == len(powers) * len(allowed_schemes(code))
        assert {c.scheme for c in points} == set(allowed_schemes(code))
        assert [(c.scheme, c.power_dbm) for c in points] == sorted(
            (c.scheme, c.power_dbm) for c in points
        )
        for point in points:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,))
            )
            dl, ul = run_trial(cfg, point.power_dbm, point.scheme, rng)
            assert point.mean_rate_bps_hz == dl + ul, (code, point)
            assert point.std_err == 0.0
            assert point.trials == 1


@pytest.mark.parametrize("code", "abcd")
def test_trial_order_leaves_the_rates_unchanged(code):
    # Trials share the per-run constants; scoring them in reverse must give
    # every trial the rates it gets in order, bit for bit.
    cfg = dataclasses.replace(default_scenario(code), trials=3)
    trials = range(cfg.trials)
    consts = link._run_constants(cfg)
    forward = [link._trial_rates(cfg, consts, t) for t in trials]
    consts = link._run_constants(cfg)
    backward = {t: link._trial_rates(cfg, consts, t) for t in reversed(trials)}
    for t in trials:
        assert np.array_equal(forward[t], backward[t]), t


# A legal changed value for each key some scenario leaves unread.
UNREAD_CHANGES = {
    "num_ue": 3,
    "num_paths": 3,
    "dl_ue_antennas": 2,
    "ul_ue_antennas": 2,
    "ul_streams": 2,
    "kappa_ue_db": 5.0,
    "dl_data_fraction": 0.5,
    "hd_pilot_fraction": 0.3,
    "aging": AgingParams(doppler_hz=10.0, slot_s=2e-3),
    "budget.ul_power_dbm": -5.0,
    "architecture.phase_bits": 1,
    "pilots.num_pilots": 7,
}


@pytest.mark.parametrize("code", "abcd")
def test_unread_fields_leave_the_curves_unchanged(code):
    base = dataclasses.replace(default_scenario(code), trials=2)
    expected = format_csv(run_scenario(base))
    for key in UNREAD[code]:
        section, _, field = key.partition(".")
        if field:
            attr = SECTIONS[section]
            changed = dataclasses.replace(getattr(base, attr), **{field: UNREAD_CHANGES[key]})
            cfg = dataclasses.replace(base, **{attr: changed})
        else:
            cfg = dataclasses.replace(base, **{key: UNREAD_CHANGES[key]})
        assert cfg != base
        assert format_csv(run_scenario(cfg)) == expected, key


def test_run_scenario_seed_changes_output():
    base = dataclasses.replace(
        default_scenario("a"), trials=2, power_sweep_dbm=(20.0,), schemes=("proposed",)
    )
    other = dataclasses.replace(base, seed=base.seed + 1)
    assert run_scenario(base) != run_scenario(other)
    again = run_scenario(base)
    assert run_scenario(base) == again


def test_one_chain_receiver_matches_run_trial():
    # Schemes are received in one stack whatever the chain count, and each
    # member's lone receive row must come out as it does alone, on both of
    # `cancel_slot`'s routes: one DL UE antenna sends one-stream bursts,
    # which take the `lstsq` fit; four send bursts it projects.
    arch = ArchitectureConfig(4, 1, 4, 1, phase_bits=3, num_taps=4)
    base = dataclasses.replace(
        default_scenario("a"), arch=arch, trials=1, power_sweep_dbm=(0.0, 20.0, 40.0),
        ul_ue_antennas=1,
    )
    for dl_ue_antennas, seed in itertools.product((4, 1), range(3)):
        cfg = dataclasses.replace(base, seed=seed, dl_ue_antennas=dl_ue_antennas)
        for point in run_scenario(cfg):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
            dl, ul = run_trial(cfg, point.power_dbm, point.scheme, rng)
            assert point.mean_rate_bps_hz == dl + ul, (dl_ue_antennas, seed, point)


def test_stacked_fault_names_a_scheme_run_trial_reproduces(monkeypatch):
    # proposed and hd share one combiner call per power; only hd's noise
    # covariance is thermal noise alone, and only hd's combiner fails.
    cfg = dataclasses.replace(
        default_scenario("a"), trials=1, power_sweep_dbm=(20.0,), schemes=("proposed", "hd")
    )
    original = link.mmse_combiner
    thermal = cfg.budget.bs_noise_w * np.eye(cfg.arch.n_rx_rf)

    def fails_for_hd(h, noise_cov):
        if np.any(np.all(noise_cov == thermal, axis=(-2, -1))):
            raise SingularChannelError("planted")
        return original(h, noise_cov)

    monkeypatch.setattr(link, "mmse_combiner", fails_for_hd)
    with pytest.raises(TrialError, match="power 20 dBm, scheme hd: SingularChannelError"):
        run_scenario(cfg)
    seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,))
    with pytest.raises(SingularChannelError):
        run_trial(cfg, 20.0, "hd", np.random.default_rng(seed))
    run_trial(cfg, 20.0, "proposed", np.random.default_rng(seed))


def test_stacked_fault_in_scenario_c_names_a_scheme_run_trial_reproduces(monkeypatch):
    # Only benchmark sounds one UE at a time, with a one-row pilot matrix;
    # a fault planted there must name benchmark, not the first scheme.
    cfg = dataclasses.replace(
        default_scenario("c"), trials=1, power_sweep_dbm=(20.0,),
        schemes=("proposed", "hd", "benchmark"),
    )
    original = link.mmse_shrink

    def fails_for_one_ue(pilots, noise_var, prior_var):
        if pilots.matrix.shape[0] == 1:
            raise SingularChannelError("planted")
        return original(pilots, noise_var, prior_var)

    monkeypatch.setattr(link, "mmse_shrink", fails_for_one_ue)
    with pytest.raises(TrialError, match="power 20 dBm, scheme benchmark: SingularChannelError"):
        run_scenario(cfg)
    seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,))
    with pytest.raises(SingularChannelError):
        run_trial(cfg, 20.0, "benchmark", np.random.default_rng(seed))
    for scheme in ("proposed", "hd"):
        run_trial(cfg, 20.0, scheme, np.random.default_rng(seed))


def test_fewer_surviving_chains_than_ul_streams_is_an_outage():
    # At 50 dBm saturation leaves fewer receive chains than the 4 UL
    # streams; such a slot scores UL 0, as a fully saturated one does,
    # instead of failing the interference-free bound.
    cfg = dataclasses.replace(
        default_scenario("a"), trials=20, ul_streams=4, schemes=("proposed", "benchmark"),
        power_sweep_dbm=(40.0, 45.0, 50.0),
    )
    points = run_scenario(cfg)
    assert all(np.isfinite(p.mean_rate_bps_hz) and p.mean_rate_bps_hz > 0 for p in points)
    seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(5,))
    dl, ul = run_trial(cfg, 50.0, "benchmark", np.random.default_rng(seed))
    assert ul == 0.0 and dl > 0.0


def test_fault_in_the_rate_pass_names_a_point_run_trial_reproduces(monkeypatch):
    # Scenario a scores every (power, scheme) of a trial in one rate pass;
    # a fault planted for one power must be replayed down to that point.
    cfg = dataclasses.replace(
        default_scenario("a"), trials=1, power_sweep_dbm=(20.0, 30.0), schemes=("proposed", "hd")
    )
    original = link.dl_rate

    def fails_at_one_watt(h, w, p, noise, cov=None):
        if np.any(np.asarray(p) == 1.0):
            raise FloatingPointError("planted")
        return original(h, w, p, noise, cov)

    monkeypatch.setattr(link, "dl_rate", fails_at_one_watt)
    with pytest.raises(TrialError, match="power 30 dBm, scheme proposed: FloatingPointError"):
        run_scenario(cfg)
    seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,))
    with pytest.raises(FloatingPointError):
        run_trial(cfg, 30.0, "proposed", np.random.default_rng(seed))
    run_trial(cfg, 20.0, "hd", np.random.default_rng(seed))
