"""Stacked rate and combiner calls equal the 2-D calls, member for member.

Scenarios a and b receive all schemes of a power point as one stack and
score every (power, scheme) of a trial in one rate pass, each item at its
own power.  Their CSVs stay byte-identical to scoring each point alone
only if every stacked call returns exactly (`np.array_equal`), not
approximately, what the 2-D call on each member returns; `run_scenario`
is checked against `run_trial` on random small configs of a, b and c for
the same reason.  On every scenario checked there the rates must also be
finite and non-negative, and on c ideal-CSI rates monotone in power.  c
and d rate every (power, scheme) of a trial in one pass too, which must
equal rating each item alone.  The staging itself is guarded too: sounding
pilots are built once per run and power, eigen precoders once per (trial,
power, streams), a's and b's codebooks once per run, a's UL combiners in
one call per trial and surviving-chain count, and each distinct precoder's
burst through the TX chain at most once.  The slot canceller's stacks
are checked in `test_cancel_slot.py`.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fdmimo import beamforming, estimation, link
from fdmimo.beamforming import mmse_combiner
from fdmimo.cli import default_scenario
from fdmimo.config import AgingParams, ArchitectureConfig, allowed_schemes
from fdmimo.link import dl_rate, run_scenario, run_trial, ul_rate

dims = st.integers(1, 6)
batches = st.integers(1, 5)
seeds = st.integers(0, 2**32 - 1)


def _cn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hpd(rng, *batch, n):
    """Hermitian positive definite matrices with a leading `batch` shape."""
    a = _cn(rng, *batch, n, n)
    return a @ a.conj().swapaxes(-1, -2) + 0.1 * np.eye(n)


@settings(max_examples=60, deadline=None)
@given(batch=batches, rows=dims, cols=dims, streams=dims, seed=seeds)
def test_stacked_dl_rate_is_exact(batch, rows, cols, streams, seed):
    rng = np.random.default_rng(seed)
    h = _cn(rng, rows, cols)
    w = _cn(rng, batch, cols, streams)
    cov = _hpd(rng, batch, n=rows)
    stacked = dl_rate(h, w, 2.0, 0.5, cov)
    plain = dl_rate(h, w, 2.0, 0.5)
    assert stacked.shape == plain.shape == (batch,)
    for k in range(batch):
        assert np.array_equal(stacked[k], dl_rate(h, w[k], 2.0, 0.5, cov[k]))
        assert np.array_equal(plain[k], dl_rate(h, w[k], 2.0, 0.5))


@settings(max_examples=60, deadline=None)
@given(batch=batches, chains=dims, streams=dims, seed=seeds)
def test_stacked_mmse_combiner_is_exact(batch, chains, streams, seed):
    rng = np.random.default_rng(seed)
    h = _cn(rng, batch, chains, streams)
    cov = _hpd(rng, batch, n=chains)
    stacked = mmse_combiner(h, cov)
    for k in range(batch):
        assert np.array_equal(stacked[k], mmse_combiner(h[k], cov[k]))


@settings(max_examples=60, deadline=None)
@given(batch=batches, chains=dims, streams=dims, seed=seeds)
def test_stacked_ul_rate_is_exact(batch, chains, streams, seed):
    # More streams than chains leaves the combined noise singular (NaN rate).
    streams = min(streams, chains)
    rng = np.random.default_rng(seed)
    h = _cn(rng, batch, chains, streams)
    u = _cn(rng, batch, chains, streams)
    cov = _hpd(rng, batch, n=chains)
    stacked = ul_rate(h, u, 3.0, cov)
    for k in range(batch):
        assert np.array_equal(stacked[k], ul_rate(h[k], u[k], 3.0, cov[k]))
    # The scorer's form: each member's rate and its interference-free
    # bound share one call, with the channel and combiner broadcast.
    pairs = np.stack([cov, _hpd(rng, batch, n=chains)], axis=1)
    both = ul_rate(h[:, None], u[:, None], 3.0, pairs)
    assert both.shape == (batch, 2)
    for k in range(batch):
        for j in range(2):
            assert np.array_equal(both[k, j], ul_rate(h[k], u[k], 3.0, pairs[k, j]))


@settings(max_examples=60, deadline=None)
@given(batch=batches, rows=dims, cols=dims, streams=dims, seed=seeds)
def test_dl_rate_with_a_power_per_link_is_exact(batch, rows, cols, streams, seed):
    rng = np.random.default_rng(seed)
    h = _cn(rng, rows, cols)
    w = _cn(rng, batch, cols, streams)
    cov = _hpd(rng, batch, n=rows)
    p = 10.0 ** rng.uniform(-4, 4, batch)
    stacked = dl_rate(h, w, p, 0.5, cov)
    assert stacked.shape == (batch,)
    for k in range(batch):
        assert np.array_equal(stacked[k], dl_rate(h, w[k], float(p[k]), 0.5, cov[k]))


@settings(max_examples=60, deadline=None)
@given(batch=batches, chains=dims, streams=dims, seed=seeds)
def test_ul_rate_with_a_power_per_link_is_exact(batch, chains, streams, seed):
    streams = min(streams, chains)
    rng = np.random.default_rng(seed)
    h = _cn(rng, batch, chains, streams)
    u = _cn(rng, batch, chains, streams)
    p = 10.0 ** rng.uniform(-4, 4, batch)
    # The scorer's form: rate and bound per item, the item's power broadcast.
    pairs = np.stack([_hpd(rng, batch, n=chains), _hpd(rng, batch, n=chains)], axis=1)
    both = ul_rate(h[:, None], u[:, None], p[:, None], pairs)
    assert both.shape == (batch, 2)
    for k in range(batch):
        for j in range(2):
            assert np.array_equal(both[k, j], ul_rate(h[k], u[k], float(p[k]), pairs[k, j]))


@settings(max_examples=40, deadline=None)
@given(
    powers=st.integers(1, 3),
    shapes=st.lists(st.tuples(dims, dims), min_size=1, max_size=2),
    picks=st.lists(st.integers(-1, 1), min_size=12, max_size=12),
    seed=seeds,
)
def test_stacked_dl_rate_pass_is_exact(powers, shapes, picks, seed):
    # c's and d's rate pass stacks every (power, scheme) item of a trial
    # by shape; each rate equals the pass over that item alone.
    cfg = default_scenario("c")
    rng = np.random.default_rng(seed)
    items = []
    for pick in picks[: powers * len(cfg.schemes)]:
        if pick < 0 or pick >= len(shapes):
            items.append(None)  # a scheme left without a precoder
            continue
        ues, chains = shapes[pick]
        rows = 1e-5 * _cn(rng, ues, chains)
        w = _cn(rng, chains, ues)
        items.append((float(rng.uniform(1e-3, 10.0)), rows, w / np.linalg.norm(w),
                      1e-12 * rng.uniform(0.0, 1.0, ues)))
    stacked = link._rate_dl(cfg, {}, items)
    for k, item in enumerate(items):
        assert stacked[k] == link._rate_dl(cfg, {}, [item])[0]
        ref = 0.0 if item is None else _per_ue_loop(cfg.budget.ue_noise_w, *item)
        assert stacked[k][0] == pytest.approx(ref, rel=1e-12, abs=0.0)


def _per_ue_loop(noise_w, p_w, rows, w, dist):
    """The rate pass for one pointing, UE by UE: the reference it vectorises."""
    gains = np.abs(rows @ w) ** 2 * p_w
    total = 0.0
    for k in range(len(rows)):
        intf = np.sum(gains[k]) - gains[k, k]
        total += np.log2(1.0 + gains[k, k] / (intf + dist[k] + noise_w))
    return total


@pytest.mark.parametrize("code", "ab")
def test_sweep_ab_builds_its_codebooks_once_per_run(count_calls, code):
    cfg = dataclasses.replace(default_scenario(code), trials=2)
    calls = count_calls(link, "dft_codebook")
    inner = count_calls(beamforming, "dft_codebook")  # as assemble_analog_bf sees it
    run_scenario(cfg, jobs=1)
    # A ceiling: the transmit and receive codebooks, once per run; building
    # them in each trial made 2 calls per trial, and rebuilding them in each
    # analog beamformer 2 more.
    assert 0 < len(calls) + len(inner) <= 2


@st.composite
def small_ab_configs(draw):
    """Scenario a or b with 1-4 chains, any UL stream count the UE allows,
    2-4 powers that include a saturating 50 dBm, and a scheme subset."""
    code = draw(st.sampled_from("ab"))
    n_tx_rf, n_rx_rf = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if code == "a":
        arch = ArchitectureConfig(n_tx_rf, n_rx_rf, n_tx_rf, n_rx_rf)
    else:
        sub_tx, sub_rx = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        arch = ArchitectureConfig(n_tx_rf * sub_tx, n_rx_rf * sub_rx, n_tx_rf, n_rx_rf)
    arch = dataclasses.replace(arch, num_taps=draw(st.integers(0, n_tx_rf * n_rx_rf)))
    ul_ue = draw(st.integers(1, 4))
    others = st.sampled_from([-10.0, 0.0, 15.0, 30.0, 40.0])
    powers = draw(st.lists(others, min_size=1, max_size=3, unique=True))
    schemes = draw(st.lists(st.sampled_from(allowed_schemes(code)), min_size=1, unique=True))
    return dataclasses.replace(
        default_scenario(code), arch=arch, trials=1, seed=draw(seeds),
        power_sweep_dbm=tuple(draw(st.permutations(powers + [50.0]))), schemes=tuple(schemes),
        dl_ue_antennas=draw(st.integers(1, 4)), ul_ue_antennas=ul_ue,
        ul_streams=draw(st.integers(1, ul_ue)), packet_symbols=200,
    )


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(cfg=small_ab_configs())
# Five chains sending one-stream bursts take the canceller's `lstsq` fit;
# under two BLAS threads a fit shared by several members rounds each unlike
# its fit alone, which made 4 of these 6 points differ from `run_trial`.
@example(cfg=dataclasses.replace(
    default_scenario("a"), arch=ArchitectureConfig(5, 5, 5, 5, num_taps=5), trials=1, seed=0,
    power_sweep_dbm=(0.0, 20.0, 40.0), schemes=("proposed", "proposed-ideal"),
    dl_ue_antennas=1, packet_symbols=1000,
))
def test_run_scenario_is_run_trial_on_small_ab_configs(blas_threads, cfg):
    """Every point is its `run_trial`, whose DL and UL rates are finite and
    non-negative, under two BLAS threads.  That UL stays within its
    interference-free bound needs no check here: `_score_ab` raises at any
    point where it does not."""
    blas_threads(2)
    points = run_scenario(cfg)
    assert len(points) == len(cfg.schemes) * len(cfg.power_sweep_dbm)
    for point in points:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
        dl, ul = run_trial(cfg, point.power_dbm, point.scheme, rng)
        assert np.isfinite([dl, ul]).all() and dl >= 0.0 and ul >= 0.0, point
        assert point.mean_rate_bps_hz == dl + ul, point


@st.composite
def small_c_configs(draw):
    """Scenario c with a 1-3 antenna array, up to one UE per antenna, a
    Doppler and slot length that put J0's argument in either its series or
    its Hankel branch, and 2-3 powers."""
    n = draw(st.integers(1, 3))
    arch = ArchitectureConfig(n, n, n, n, num_taps=draw(st.integers(0, n * n)))
    aging = AgingParams(doppler_hz=draw(st.floats(0.0, 1e3)), slot_s=draw(st.floats(1e-6, 0.1)))
    powers = st.sampled_from([0.0, 10.0, 20.0, 30.0, 40.0])
    return dataclasses.replace(
        default_scenario("c"), arch=arch, aging=aging, num_ue=draw(st.integers(1, n)),
        trials=1, seed=draw(seeds), packet_symbols=60,
        power_sweep_dbm=tuple(draw(st.lists(powers, min_size=2, max_size=3, unique=True))),
    )


@settings(max_examples=30, deadline=None)
@given(cfg=small_c_configs())
def test_small_c_configs_score_sane_rates_and_run_scenario_is_run_trial(cfg):
    points = run_scenario(cfg)
    assert len(points) == len(cfg.schemes) * len(cfg.power_sweep_dbm)
    for point in points:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
        dl, ul = run_trial(cfg, point.power_dbm, point.scheme, rng)
        assert np.isfinite([dl, ul]).all() and dl >= 0.0 and ul >= 0.0, point
        assert point.mean_rate_bps_hz == dl + ul, point
    # Ideal CSI, unimpaired: more power never costs rate (the slack is the
    # one `run_scenario` itself allows).
    ideal = [p.mean_rate_bps_hz for p in points if p.scheme == "ideal-csi"]
    assert len(ideal) == len(cfg.power_sweep_dbm)
    assert all(b >= a - 1e-9 for a, b in zip(ideal, ideal[1:]))


def test_sweep_a_builds_pilots_per_power_and_eigen_precoders_once(count_calls):
    cfg = dataclasses.replace(default_scenario("a"), trials=3)
    built = count_calls(estimation.Pilots, "__post_init__")
    eigen = count_calls(link, "eigen_precoder")
    run_scenario(cfg, jobs=1)
    precoded = [(call.args[0].tobytes(), call.args[1]) for call in eigen]
    powers = len(cfg.power_sweep_dbm)
    assert 2 * powers < len(built) <= 3 + 2 * powers
    # Each (trial, power) has its own channel estimate: a repeated input is
    # a repeated decomposition.
    assert len(precoded) >= cfg.trials * powers
    assert len(set(precoded)) == len(precoded)


def test_sweep_a_computes_its_combiners_once_per_trial(count_calls):
    # The rate pass makes one combiner call per surviving-chain count for
    # the whole trial; one call per power point made at least one per
    # (trial, power).
    cfg = dataclasses.replace(default_scenario("a"), trials=3)
    calls = count_calls(link, "mmse_combiner")
    run_scenario(cfg, jobs=1)
    assert 0 < len(calls) < cfg.trials * len(cfg.power_sweep_dbm)


def test_proposed_and_hd_share_an_unprojected_burst(count_calls):
    # At -10 dBm every trial's proposed precoder meets its SI budget as it
    # is, so it is hd's eigen precoder too: one burst, distorted once.
    cfg = dataclasses.replace(
        default_scenario("a"), trials=3, power_sweep_dbm=(-10.0,), schemes=("proposed", "hd")
    )
    projections = count_calls(link, "si_aware_precoder_projection")
    calls = count_calls(link, "apply_tx_chain")
    run_scenario(cfg, jobs=1)
    projected = [call.result is not call.args[0] for call in projections]
    assert len(projected) == cfg.trials and not any(projected)
    assert len(calls) == cfg.trials
