"""Monte Carlo link simulation of a full-duplex massive MIMO base station.

Four scenario geometries are modeled:

  a  small fully digital array serving one multi-antenna UE per direction
  b  hybrid mmWave array (sub-array beamforming) with one UE per direction
  c  fully digital multi-user cell with reciprocal channels and CSI aging
  d  hybrid downlink steered from uplink direction-of-arrival training

Every scheme of a scenario is evaluated on the same channel draws, noise
draws and data bursts (common random numbers), so per-power curves are
paired across schemes and runs are reproducible for a given seed.

The trial loop is staged by what each quantity depends on:

  per run    from the config alone (`_run_constants`): pilot matrices, for
             the DL and UL sounding of a and b scaled to each swept power,
             each checked once; the transmit codebook of a, b and d and the
             receive codebook of a and b; d's beam grid: the codeword
             angles, the DOA sweep over them and each codeword's analog
             beamformer.  c's slot-to-slot correlation rho = J0(2 pi fD Ts)
             comes with its `AgingParams`
  per trial  the draw plus everything independent of the transmit power:
             beams and effective channels, the SI calibration estimate and
             one analog canceller per tap choice (`_trial_taps`, which also
             applies the SI isolation).  In c and d, the ideal-CSI and
             half-duplex pointings: UE rows, precoder and the per-UE TX
             distortion power of the unit-power burst, which the power only
             scales (`_fixed_pointing`).  In c, one probe record per
             full-duplex scheme (`_prepare_c`): its probe burst, its sounded
             pilots correlated with the pilot matrix, and its probe slot,
             received once at unit amplitude with one canceller fit and kept
             as per-chain second moments (`_stage_probe`).  In d, the HD
             angle estimate (trained at the fixed UL power), the UL pilot
             and noise of the full-duplex slot (`_prepare_d`), and a memo
             keyed by codeword of each beam's DL and SI channels, SI
             estimate and cancellers (`_d_beam`).  Then one rate pass scores
             the trial's items, flat over (power, scheme), one stack per
             array shape (`_score_ab`, `_rate_dl`); in a and b it first
             computes the UL combiners, one stack per surviving-chain count
  per power  one item per scheme.  In a and b: the channel estimates, one
             eigen precoder per stream count shared by every scheme, and one
             burst per distinct precoder, sent through the TX chain at most
             once; schemes with the same precoder fields and digital stage
             are received together, down to their covariances and
             saturation flags (`_receive_ab`).  In c and d (`_point_dl`):
             the fixed pointings scaled to the power, and each full-duplex
             pointing (rows, precoder), whose burst is formed and distorted
             there.  In c a full-duplex scheme takes its probe slot's
             residual SI and saturated chains at the power from the moments
             (`_probe_receive`), scales its correlations into an LMMSE
             estimate and zero-forces (`_c_fd_point`); in d it projects its
             precoder, receives the warm-up slot and points the scored slot
             (`_d_fd_point`)

Each decision of the trial has one owner.  The config holds the sweep, so
`run_trial` scores a copy of it narrowed to one power and scheme.  One
table, `_DRIVERS`, gives each scenario its draw, prepare, per-power stage,
rate pass and the share of its rates a half-duplex scheme keeps, and
`_eval_draw` gives the trial its shape: it flattens the items for the rate
pass, applies that share and regroups the pairs per power.  d's HD and
warm-up slots take their angle from one step, `_d_angle`: the DOA sweep
over the chains that escaped clipping, refined by an adjacent pair of
them, or the first codeword's angle when every chain clipped.

Each hardware block has one owner too.  Every burst goes through the TX
chain, drive level included, in `impairments.apply_tx_chain`; each analog
beamformer is assembled from the run's codebook its beams were chosen from
(`assemble_analog_bf`); and each analog canceller, `_Taps`, holds the SI
channel it cancels and leaves the analog residual (`_Taps.leak`).  A
scheme's analog taps are the configured count laid out row by row, every
position, or none (`_trial_taps`).  The full-duplex slots of a, b and d
are received through one chain, `_fd_receive`: analog taps, saturation
check, then the digital canceller.  c's probe slot, whose burst only
scales with the power, takes the same stages split at the amplitude
(`_stage_probe`, `_probe_receive`).  Both run the digital canceller
through `cancellation.cancel_slot`, which projects every burst of a, b and
c onto its regressors' row space and fits every burst of d, one stream on
two chains, by minimum-norm `lstsq`.

The trials of a run are shared among worker processes forked after the
per-run stage (`_pooled_rates`), one contiguous chunk of trial indices
each, so the per-run constants reach every worker through the fork and
stay read-only.  Each chunk's rows are written back by trial index, and
every trial draws from its own child seed, so the curves do not depend on
the number of workers; with one, and wherever `_forks` says no, the trials
run in the calling process.  Each worker runs numpy's bundled OpenBLAS on
one thread, since the workers already fill the cores, and fixes glibc's
malloc thresholds, so that it reuses its heap from trial to trial whatever
its parent did before the fork (`_serve`).  Trials run in the calling process
keep its allocator settings, so profile them with that in mind.

Arrays shared across schemes or powers are read-only, so an in-place
write by one scheme fails instead of leaking into the next.  Arrays of
packet length built at a power point do not outlive it; c's probe slot
builds none at a power.

Rates are spectral efficiencies in bps/Hz.  A trial returns a (DL, UL)
pair; scenarios c and d carry data in the DL only and report UL as zero.
Half-duplex baselines return the two half-slot (or 90% DL slot) rates
already weighted, so DL + UL is always the headline sum rate.
"""

from __future__ import annotations

import ctypes
import dataclasses
import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from fdmimo.beamforming import (
    SingularChannelError,
    assemble_analog_bf,
    beam_select_doa,
    dft_beam_angles,
    dft_codebook,
    eigen_precoder,
    mmse_combiner,
    select_subarray_beams,
    zf_precoder,
)
from fdmimo.cancellation import (
    InfeasibleProjectionError,
    cancel_slot,
    check_saturation,
    effective_si_channel,
    select_taps_by_row,
    set_tap_gains,
    si_aware_precoder_projection,
)
from fdmimo.channel import (
    ClusteredParams,
    RicianParams,
    complex_gaussian,
    evolve_gauss_markov,
    gen_clustered_mmwave,
    gen_rayleigh,
    gen_rician,
    steering_vector,
)
from fdmimo.config import _PLANS, CurvePoint, LinkBudget, ScenarioConfig, _Plan, dbm_to_watt
from fdmimo.estimation import Pilots, doa_estimate, mmse_estimate, mmse_shrink, orthogonal_pilots
from fdmimo.impairments import apply_tx_chain


def dl_rate(
    h_eff: np.ndarray, precoder: np.ndarray, tx_power_w: float, noise_w: float,
    interference_cov: Optional[np.ndarray] = None,
) -> float | np.ndarray:
    """log2 det(I + P (HW)(HW)^H C^-1) with C = noise I + interference.

    `h_eff` includes all link gains and `precoder` has unit Frobenius
    norm, so `tx_power_w` is the total radiated power.  Leading axes of
    the arrays stack independent links; the result is then an array of
    rates, each equal to the 2-D call on its own inputs, bit for bit.
    `tx_power_w` may be such an array too, one power per link.
    """
    if np.min(tx_power_w) < 0 or noise_w <= 0:
        raise ValueError("tx_power_w must be >= 0 and noise_w > 0")
    h = np.asarray(h_eff, dtype=complex)
    w = np.asarray(precoder, dtype=complex)
    g = h @ w
    c = noise_w * np.eye(h.shape[-2], dtype=complex)
    if interference_cov is not None:
        c = c + np.asarray(interference_cov, dtype=complex)
    return _logdet_gap(c + _per_link(tx_power_w) * (g @ _herm(g)), c)


def ul_rate(
    h_eff: np.ndarray, combiner: np.ndarray, ul_power_w: float, noise_cov: np.ndarray
) -> float | np.ndarray:
    """Achievable rate through an explicit linear combiner.

    The UL power splits equally across the streams (columns of `h_eff`);
    `noise_cov` holds thermal noise plus residual self-interference at the
    receive chains.  Saturated chains are dropped by the caller before the
    call, so a fully saturated receiver never reaches this function.
    Leading axes stack independent links, and `ul_power_w` may give one
    power per link, as in `dl_rate`.
    """
    if np.min(ul_power_w) < 0:
        raise ValueError("ul_power_w must be >= 0")
    h = np.asarray(h_eff, dtype=complex)
    u = np.asarray(combiner, dtype=complex)
    g = _herm(u) @ h
    cn = _herm(u) @ np.asarray(noise_cov, dtype=complex) @ u
    per_stream = _per_link(ul_power_w / h.shape[-1])
    return _logdet_gap(cn + per_stream * (g @ _herm(g)), cn)


def _per_link(p):
    """A power, or an array of powers over the leading axes made to
    broadcast against their matrices."""
    return p[..., None, None] if np.ndim(p) else p


def _herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _logdet_gap(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """log2 det a - log2 det b: a float, or an array over leading axes."""
    _, la = np.linalg.slogdet(a)
    _, lb = np.linalg.slogdet(b)
    gap = (la - lb) / np.log(2.0)
    return float(gap) if np.ndim(gap) == 0 else gap


def _fd_receive(
    taps: _Taps, x: np.ndarray, x_tx: np.ndarray, ul: np.ndarray, noise: np.ndarray,
    digital: bool, sat_w: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One full-duplex slot of scenario a, b or d at the BS receive chains.

    The radiated burst `x_tx` leaks past the analog `taps`, which
    subtract their copy of the clean burst `x` (`_Taps.leak`), UL signal
    and noise add, and a chain whose mean input power exceeds `sat_w`
    watts is flagged as saturated.  With `digital` the canceller, seeded
    with `taps.resid_lin`, is fit on the slot and applied (`cancel_slot`).
    Returns the SI left after the last stage (the analog residual without
    `digital`), the samples after the last stage, and the flags of
    saturated chains.

    A stack of radiated versions of one burst, `x_tx` of shape (members,
    chains, samples), is received in one pass, with one seed for all
    members.  `cancel_slot` routes the stack as one burst, by the
    rank and the conditioning of the regressors of `x` built once for all:
    either each member gets the unique residual of its own rows by a
    projection, or all members' rows take one minimum-norm `lstsq` fit.
    """
    r_si = taps.leak(x, x_tx)
    r = r_si + ul + noise
    saturated = check_saturation(np.mean(np.abs(r) ** 2, axis=-1), sat_w)
    if digital:
        del r_si  # not returned; freed before the fit's temporaries
        z = cancel_slot(x, r, taps.resid_lin)
        return z - ul - noise, z, saturated
    return r_si, r, saturated


def _ro(a: np.ndarray) -> np.ndarray:
    """Mark an array that several schemes or powers share as read-only.

    An in-place write by one consumer would otherwise leak into the next;
    read-only it fails loudly instead.
    """
    a.setflags(write=False)
    return a


def _pilot_estimate(
    h_true: np.ndarray, noise_std: np.ndarray, pil: Pilots, noise_w: float, prior_var: float
) -> np.ndarray:
    """Simulated sounding with the scaled pilots `pil`, then the LMMSE estimate."""
    y = h_true @ pil.matrix + np.sqrt(noise_w) * noise_std[:, : pil.matrix.shape[1]]
    return mmse_estimate(y, pil, noise_w, prior_var)


@dataclass(frozen=True)
class _Taps:
    """Analog canceller of one tap choice on an SI channel, fixed for a trial."""

    h_si: np.ndarray  # the SI channel between the chains, which the taps cancel
    matrix: np.ndarray  # dense tap matrix C
    resid_lin: np.ndarray  # R = h_si_hat - C: the digital fit's seed, the projection's residual

    def leak(self, x: np.ndarray, x_tx: np.ndarray) -> np.ndarray:
        """SI left after the analog stage: the radiated burst `x_tx`
        through the SI channel, less the taps' copy of the clean burst `x`."""
        return self.h_si @ x_tx - self.matrix @ x

    @cached_property
    def resid_svd(self) -> Tuple[np.ndarray, np.ndarray]:
        """Singular values and right singular vectors of R, for the
        projections against it; computed on the first one."""
        _, svals, vh = np.linalg.svd(self.resid_lin)
        return _ro(svals), _ro(vh)


def _trial_taps(
    cfg: ScenarioConfig, consts: dict, h_si: np.ndarray, n_cal: np.ndarray,
    plans: List[_Plan],
) -> Tuple[np.ndarray, Dict[str, _Taps]]:
    """The trial's SI calibration on the chain-to-chain SI channel `h_si`
    attenuated by the configured isolation: the read-only estimate of that
    channel, sounded once at the calibration power with noise `n_cal`, and
    one analog canceller per distinct tap choice among the given plans.

    The configured taps cover whole receive rows first
    (`select_taps_by_row`); full taps match every entry of the estimate,
    so C is that estimate, and no taps leave C zero.
    """
    bud = cfg.budget
    configured = cfg.arch.num_taps
    h_si_eff = _ro(np.sqrt(bud.si_gain) * h_si)
    h_si_hat = _ro(_pilot_estimate(h_si_eff, n_cal, consts["si_cal"], bud.bs_noise_w, bud.si_gain))
    taps: Dict[str, _Taps] = {}
    for plan in plans:
        if plan.taps in taps:
            continue
        if plan.taps == "full":
            c = h_si_hat
        elif plan.taps == "none":
            c = _ro(np.zeros(h_si_hat.shape, dtype=complex))
        else:
            c = _ro(set_tap_gains(h_si_hat, select_taps_by_row(h_si_hat, configured)).matrix())
        taps[plan.taps] = _Taps(h_si_eff, c, _ro(h_si_hat - c))
    return h_si_hat, taps


def _project(
    bud: LinkBudget, plan: _Plan, taps: _Taps, w: np.ndarray, p_w: float
) -> Optional[np.ndarray]:
    """`w` projected until its residual SI at power `p_w` meets `plan`'s
    budget (see `_Plan`), or None when no projection meets it."""
    mu_w = 0.5 * bud.rx_saturation_w if plan.digital else bud.bs_noise_w
    try:
        # The budget is on radiated residual power, the projection
        # compares against ||R W||_F^2 with unit symbol power.
        return si_aware_precoder_projection(w, taps.resid_lin, mu_w / p_w, taps.resid_svd)
    except InfeasibleProjectionError:
        return None


def _fd_precoder(
    cfg: ScenarioConfig, ctx: dict, eig: Callable[[int], np.ndarray], plan: _Plan, p_w: float
) -> Tuple[Optional[np.ndarray], int]:
    """Eigen precoder plus the plan's self-interference spatial handling.

    `eig(streams)` is the read-only eigen precoder of the DL estimate.
    `ctx["null_v"]` spans the strong half of the SI channel row space, used
    by plans with a fixed null depth.  Returns (precoder, streams); the
    precoder is None when no stream count admits a feasible projection.
    """
    streams = min(cfg.arch.n_tx_rf, cfg.dl_ue_antennas)
    while streams >= 1:
        w = eig(streams)
        if plan.duplex == "hd":
            return w, streams
        if plan.null_depth:
            # Transmit in the weak half of the SI channel row space.
            null_v = ctx["null_v"]
            w = w - null_v @ (null_v.conj().T @ w)
            norm = np.linalg.norm(w)
            if norm < 1e-12:
                return None, 0
            return w / norm, streams
        w = _project(cfg.budget, plan, ctx["taps"][plan.taps], w, p_w)
        if w is not None:
            return w, streams
        streams -= 1
    return None, 0


def _measure_cov(z: np.ndarray) -> np.ndarray:
    """Sample covariance of the rows of `z`, over any leading axes."""
    return (z @ _herm(z)) / z.shape[-1]


# ---------------------------------------------------------------------------
# scenarios a and b: one DL UE and one UL UE, sum rate metric


def _draw_ab(cfg: ScenarioConfig, rng: np.random.Generator) -> dict:
    arch = cfg.arch
    if cfg.scenario == "a":
        h_dl = gen_rayleigh(cfg.dl_ue_antennas, arch.n_tx, rng)
        h_ul = gen_rayleigh(arch.n_rx, cfg.ul_ue_antennas, rng)
    else:
        h_dl = gen_clustered_mmwave(
            ClusteredParams(cfg.num_paths, cfg.dl_ue_antennas, arch.n_tx), rng
        )
        h_ul = gen_clustered_mmwave(
            ClusteredParams(cfg.num_paths, arch.n_rx, cfg.ul_ue_antennas), rng
        )
    h_si = gen_rician(RicianParams(cfg.kappa_si_db, arch.n_rx, arch.n_tx), rng)
    lp = cfg.pilots.num_pilots
    t = cfg.packet_symbols
    return {
        "h_dl": h_dl,
        "h_ul": h_ul,
        "h_si": h_si,
        "n_cal": complex_gaussian(rng, arch.n_rx_rf, lp),
        "n_dl": complex_gaussian(rng, cfg.dl_ue_antennas, lp),
        "n_ul": complex_gaussian(rng, arch.n_rx_rf, lp),
        "s_dl": complex_gaussian(rng, arch.n_tx_rf, t),
        "s_ul": complex_gaussian(rng, cfg.ul_streams, t),
        "n_burst": complex_gaussian(rng, arch.n_rx_rf, t),
    }


def _prepare_ab(cfg: ScenarioConfig, consts: dict, draw: dict, plans: List[_Plan]) -> dict:
    """Per-trial context: beams, effective channels, SI estimate, taps."""
    arch = cfg.arch
    bud = cfg.budget
    tx, rx = consts["tx_book"], consts["rx_book"]
    f_tx = assemble_analog_bf(select_subarray_beams(draw["h_dl"], tx, arch.n_tx_rf, "tx"), tx)
    f_rx = assemble_analog_bf(select_subarray_beams(draw["h_ul"], rx, arch.n_rx_rf, "rx"), rx)
    ctx = dict(draw)
    ctx["h_dl_eff"] = _ro(np.sqrt(bud.dl_gain) * (draw["h_dl"] @ f_tx))
    h_ul = draw["h_ul"][:, : cfg.ul_streams]
    ctx["h_ul_eff"] = _ro(np.sqrt(bud.ul_gain) * (f_rx.conj().T @ h_ul))
    h_si = effective_si_channel(draw["h_si"], f_tx, f_rx)
    fd = [plan for plan in plans if plan.duplex == "fd"]
    h_si_hat, ctx["taps"] = _trial_taps(cfg, consts, h_si, draw["n_cal"], fd)
    if any(plan.null_depth for plan in fd):
        _, _, vh = np.linalg.svd(h_si_hat)
        ctx["null_v"] = _ro(vh[: arch.n_tx_rf // 2].conj().T)
    ctx["noise_b"] = _ro(np.sqrt(bud.bs_noise_w) * draw["n_burst"])
    # What an unimpaired burst, a half-duplex slot and an unsaturated
    # receiver leave: no TX distortion, no residual SI, every chain.
    ctx["no_dist"] = _ro(np.zeros((cfg.dl_ue_antennas,) * 2, dtype=complex))
    ctx["no_si"] = _ro(np.zeros((arch.n_rx_rf,) * 2, dtype=complex))
    ctx["all_alive"] = _ro(np.ones(arch.n_rx_rf, dtype=bool))
    return ctx


def _groups(keys) -> Dict[object, List[int]]:
    """Positions of equal keys, in first-seen order; None keys are left out."""
    out: Dict[object, List[int]] = {}
    for i, key in enumerate(keys):
        if key is not None:
            out.setdefault(key, []).append(i)
    return out


def _stacked(fn, keys, *args) -> list:
    """One call of `fn` per group of equal keys on the members' stacked
    `args`; the results member by member, None for a None key."""
    out: list = [None] * len(keys)
    for idx in _groups(keys).values():
        for i, res in zip(idx, fn(*(np.stack([a[i] for i in idx]) for a in args))):
            out[i] = res
    return out


def _receive_ab(
    cfg: ScenarioConfig, consts: dict, ctx: dict, power_dbm: float, plans: List[_Plan]
) -> List[tuple]:
    """Every plan's slot at one power, up to its covariances.

    The channels are sounded at the operating power and the eigen
    precoders are computed once per stream count.  Each distinct precoder
    is sent as one burst, distorted at most once: proposed and hd share
    the eigen precoder whenever its projection leaves it as it is.
    Schemes with the same precoder fields and digital stage are received
    together: one `_fd_receive` per group, whose members' samples shrink
    at once to covariances and saturation flags.  Returns one item per
    plan for `_score_ab`: (power, precoder or None, TX distortion
    covariance at the DL UE, residual SI covariance at the BS chains,
    flags of the chains that escaped saturation, UL channel estimate).
    """
    arch = cfg.arch
    bud = cfg.budget
    p_w = dbm_to_watt(power_dbm)
    ul_amp = np.sqrt(p_w / cfg.ul_streams)  # the UL UE tracks the swept DL power
    h_dl_hat = _pilot_estimate(
        ctx["h_dl_eff"], ctx["n_dl"], consts["dl", power_dbm], bud.ue_noise_w,
        bud.dl_gain * arch.tx_subarray,
    )
    h_ul_hat = _ro(_pilot_estimate(
        ctx["h_ul_eff"], ctx["n_ul"], consts["ul", power_dbm], bud.bs_noise_w,
        bud.ul_gain * arch.rx_subarray,
    ))
    ul_sym = _ro(ctx["h_ul_eff"] @ (ul_amp * ctx["s_ul"]))
    # One decomposition per stream count, shared by every burst.
    eig = lru_cache(lambda streams: _ro(eigen_precoder(h_dl_hat, streams)))
    # The fields that fix the precoder (impairments only act after it);
    # `digital` also sets the projection budget.
    fields = [(p.taps, p.null_depth, p.duplex, p.digital) for p in plans]
    precoders = {
        key: _fd_precoder(cfg, ctx, eig, plans[idx[0]], p_w) for key, idx in _groups(fields).items()
    }
    sent: Dict[int, list] = {}  # id(precoder) -> [clean burst, impaired burst, its distortion]

    def burst(i: int) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Plan i's clean and radiated bursts and TX distortion covariance at
        the DL UE.  Each precoder's burst is built on first use and goes
        through the TX chain at most once; an unimpaired one distorts
        nothing."""
        w, streams = precoders[fields[i]]
        if id(w) not in sent:
            if w is None:
                x = _ro(np.zeros((arch.n_tx_rf, cfg.packet_symbols), dtype=complex))
            else:
                x = _ro(np.sqrt(p_w) * (w @ ctx["s_dl"][:streams]))
            sent[id(w)] = [x, None, None]
        entry = sent[id(w)]
        if w is None:
            return entry[0], entry[0], None
        if not plans[i].impaired:
            return entry[0], entry[0], ctx["no_dist"]
        if entry[1] is None:
            entry[1] = _ro(apply_tx_chain(entry[0], cfg.impairments))
            entry[2] = _measure_cov(ctx["h_dl_eff"] @ (entry[1] - entry[0]))
        return entry[0], entry[1], entry[2]

    n = len(plans)
    si_cov = [ctx["no_si"]] * n  # residual SI at the BS
    alive = [ctx["all_alive"]] * n  # chains that escaped saturation
    # BLAS takes vector kernels for a lone receive row, which round unlike
    # a stack of rows; a one-chain receiver receives each scheme on its own.
    solo = arch.n_rx_rf == 1
    for key, members in _groups(f + (solo and i,) for i, f in enumerate(fields)).items():
        taps, _, duplex, digital, _ = key
        if duplex == "hd":
            continue
        w = precoders[key[:4]][0]
        z_si, _, saturated = _fd_receive(
            ctx["taps"][taps], burst(members[0])[0], np.stack([burst(i)[1] for i in members]),
            ul_sym, ctx["noise_b"], digital and w is not None, bud.rx_saturation_w,
        )
        for i, cov, flags in zip(members, _measure_cov(z_si), saturated):
            si_cov[i], alive[i] = cov, ~flags
    return [
        (p_w, precoders[key][0], burst(i)[2], c, m, h_ul_hat)
        for i, (key, c, m) in enumerate(zip(fields, si_cov, alive))
    ]


def _score_ab(cfg: ScenarioConfig, ctx: dict, items: List[tuple]) -> List[Tuple[float, float]]:
    """(DL, UL) rates of every (power, plan) item of the trial, in order.

    The items are scored in one stack: one `mmse_combiner` per number of
    surviving chains, then one `dl_rate` and one `ul_rate` (which also
    holds the interference-free bounds) per array shape, each item at its
    own power.
    """
    bud = cfg.budget
    p_w, ws, dist_cov, si_cov, alive, h_ul_hat = zip(*items)
    # Surviving chains see thermal noise plus residual SI; the bound, noise alone.
    sizes = [int(m.sum()) for m in alive]
    thermal = {k: bud.bs_noise_w * np.eye(k, dtype=complex) for k in set(sizes)}
    cov = [thermal[k] + c[m][:, m] for k, c, m in zip(sizes, si_cov, alive)]
    # Fewer surviving chains than UL streams cannot separate the streams:
    # the UL is an outage, as when every chain saturates.
    chains = [k if k >= cfg.ul_streams else None for k in sizes]
    combiners = _stacked(
        mmse_combiner, chains,
        [np.sqrt(p / cfg.ul_streams) * h[m] for p, h, m in zip(p_w, h_ul_hat, alive)], cov,
    )
    dl = _stacked(
        lambda w, c, p: dl_rate(ctx["h_dl_eff"], w, p, bud.ue_noise_w, c),
        [None if w is None else w.shape for w in ws], ws, dist_cov, p_w,
    )
    ul = _stacked(
        lambda h, u, c, t, p: ul_rate(h[:, None], u[:, None], p[:, None], np.stack([c, t], 1)),
        chains, [ctx["h_ul_eff"][m] for m in alive], combiners, cov, [thermal[k] for k in sizes],
        p_w,
    )
    out = []
    for rate, pair in zip(dl, ul):
        up, bound = (0.0, 0.0) if pair is None else map(float, pair)
        # Sanity bound: residual SI can only cost rate with this combiner.
        if up > bound * (1.0 + 1e-9) + 1e-12:
            raise RuntimeError("full-duplex UL rate exceeded its interference-free bound")
        out.append((0.0 if rate is None else float(rate), up))
    return out


# ---------------------------------------------------------------------------
# scenario c: multi-user cell, reciprocal aging channels, DL rate metric


def _draw_c(cfg: ScenarioConfig, rng: np.random.Generator) -> dict:
    arch = cfg.arch
    rho = cfg.aging.rho
    slots = [gen_rayleigh(arch.n_rx, cfg.num_ue, rng)]
    for _ in range(5):
        slots.append(evolve_gauss_markov(slots[-1], rho, rng))
    t = cfg.packet_symbols  # also the training length
    return {
        "g_slots": slots,
        "h_si": gen_rician(RicianParams(cfg.kappa_si_db, arch.n_rx, arch.n_tx), rng),
        "n_cal": complex_gaussian(rng, arch.n_rx_rf, t),
        "n_pilot": [complex_gaussian(rng, arch.n_rx_rf, t) for _ in range(cfg.num_ue)],
        "s_dl": complex_gaussian(rng, cfg.num_ue, t),
        "n_burst": complex_gaussian(rng, arch.n_rx_rf, t),
    }


def _zf_or_none(h: np.ndarray) -> Optional[np.ndarray]:
    """Zero-forcing precoder, or None when the channel is singular.

    Singularity does not depend on the transmit power, so a scheme whose
    precoder is None scores zero at every power of the trial.
    """
    try:
        return _ro(zf_precoder(h))
    except SingularChannelError:
        return None


def _prepare_c(cfg: ScenarioConfig, consts: dict, draw: dict, plans: List[_Plan]) -> dict:
    """Per-trial context: SI estimate, taps, every power-free precoder and
    what follows from it: the ideal-CSI and HD pointings for `_point_dl`,
    and for each full-duplex scheme with a probe precoder its record in
    `ctx["probe"]`: the probe burst, its sounded pilots correlated with
    the pilot matrix, and its probe slot's moments (`_stage_probe`)."""
    bud = cfg.budget
    u = cfg.num_ue
    g = draw["g_slots"]
    dl_amp = np.sqrt(bud.dl_gain)
    ul_amp = np.sqrt(bud.ul_gain)
    ctx = dict(draw)
    rows = _ro(dl_amp * g[5].T)  # one UE channel row per line
    ctx["rows"] = rows
    fd = [plan for plan in plans if plan.duplex == "fd" and plan.csi != "perfect"]
    if fd:
        # Calibrate taps once at the fixed calibration power; the probe
        # precoder measures the steady-state residual from stale truth.
        _, ctx["taps"] = _trial_taps(cfg, consts, draw["h_si"], draw["n_cal"], fd)
        # The probe slot's UL pilot plus noise, the same at every power.
        pil_rx = np.sqrt(bud.ul_gain) * (g[5] @ consts["ul_joint"].matrix)
        ctx["ul_noise"] = _ro(pil_rx + np.sqrt(bud.bs_noise_w) * draw["n_burst"])
        ctx["probe"] = {}  # plan -> (burst, correlations, moments), given a probe precoder
        for plan in fd:
            if plan.csi == "sequential":
                # One UE sounds per slot with the full pilot budget; the
                # newest estimate of UE k is k + 1 slots old when applied.
                stale = np.column_stack([g[4 - k][:, k] for k in range(u)])
                pil = consts["ul_single"].matrix
                sounded = [ul_amp * (g[4 - k][:, k : k + 1] @ pil) for k in range(u)]
            else:
                stale = g[4]
                pil = consts["ul_joint"].matrix
                sounded = [ul_amp * (g[4] @ pil)]
            w_probe = _zf_or_none(dl_amp * stale.T)
            if w_probe is None:
                continue
            burst = _ro(w_probe @ draw["s_dl"])
            # The sounding at noise level N is y + sqrt(N) n, so its
            # correlation with the pilots is y P^H + sqrt(N) n P^H.
            ph = pil.conj().T
            corr = [(_ro(y @ ph), _ro(n @ ph)) for y, n in zip(sounded, draw["n_pilot"])]
            ctx["probe"][plan] = (burst, corr, _stage_probe(cfg, ctx, plan, burst))
    if any(plan.duplex == "hd" for plan in plans):
        # Train in the reserved slice of the previous slot, apply now.
        pil = consts["ul_hd"]
        y = np.sqrt(bud.ul_gain) * (g[4] @ pil.matrix)
        y = y + np.sqrt(bud.bs_noise_w) * draw["n_pilot"][0][:, : pil.matrix.shape[1]]
        g_hat = mmse_estimate(y, pil, bud.bs_noise_w, bud.ul_gain)
        w = _zf_or_none(dl_amp * g_hat.T)
        ctx["hd"] = None if w is None else _fixed_pointing(cfg, rows, w, draw["s_dl"])
    if any(plan.csi == "perfect" for plan in plans):
        w = _zf_or_none(dl_amp * g[5].T)
        ctx["ideal"] = None if w is None else (rows, w, _ro(np.zeros(len(rows))))
    return ctx


def _moments(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row <|x|^2>, Re<x conj(y)> and <|y|^2>, stacked read-only, so
    that `_power_at` gives the per-row power of sqrt(p) x + y at any p."""
    return _ro(np.stack([
        np.mean(np.abs(x) ** 2, axis=-1),
        np.mean((x * y.conj()).real, axis=-1),
        np.mean(np.abs(y) ** 2, axis=-1),
    ]))


def _power_at(m: np.ndarray, p_w: float) -> np.ndarray:
    """Per-row mean power of sqrt(p_w) x + y from the `_moments` of (x, y):
    p <|x|^2> + 2 sqrt(p) Re<x conj(y)> + <|y|^2>, never below zero."""
    return np.maximum(p_w * m[0] + 2.0 * np.sqrt(p_w) * m[1] + m[2], 0.0)


def _stage_probe(
    cfg: ScenarioConfig, ctx: dict, plan: _Plan, burst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """A full-duplex plan's probe slot, received once per trial at unit
    amplitude and kept as per-chain second moments for `_probe_receive`:
    those of (s, u), the slot's input, and of (z_s, z_u - u), the SI left
    after the digital stage.

    `apply_tx_chain` drives every chain at a fixed level, so the impaired
    burst scales with its amplitude a: at a = sqrt(p) the slot is a s + u,
    with s = h_si tx(b) - C b the SI of the unit burst b and u the UL pilot
    plus noise.  The regressors of a b span the rows those of b span, so the
    digital stage is linear in the slot too, and its output is a z_s + z_u:
    one fit on b over the two slots (s, u), seeded with h_si_hat - C and
    0, serves every power.  Without the digital stage z_s = s and z_u = u.
    """
    taps = ctx["taps"][plan.taps]
    x_tx = apply_tx_chain(burst, cfg.impairments) if plan.impaired else burst
    s = taps.leak(burst, x_tx)
    u = ctx["ul_noise"]
    z_s, z_u = s, u
    if plan.digital:
        seed = np.stack([taps.resid_lin, np.zeros_like(taps.resid_lin)])
        z_s, z_u = cancel_slot(burst, np.stack([s, u]), seed)
    return _moments(s, u), _moments(z_s, z_u - u)


def _probe_receive(
    ctx: dict, plan: _Plan, p_w: float, sat_w: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The per-chain power of the SI left after the last stage of `plan`'s
    probe slot at power `p_w`, and the chains whose input exceeds `sat_w`
    watts; both from the moments `_stage_probe` kept, with no sample of
    the slot touched."""
    m_in, m_out = ctx["probe"][plan][2]
    return _power_at(m_out, p_w), check_saturation(_power_at(m_in, p_w), sat_w)


def _c_fd_point(
    cfg: ScenarioConfig, consts: dict, ctx: dict, p_w: float, plan: _Plan
) -> Optional[tuple]:
    """Full duplex: measure the steady-state residual with the stale-truth
    probe burst, then estimate under that interference level and zero-force.
    Returns the pointing (rows, w) for `_point_dl`, or None without a
    precoder."""
    bud = cfg.budget
    if plan not in ctx["probe"]:
        return None  # no probe precoder
    resid_w, saturated = _probe_receive(ctx, plan, p_w, bud.rx_saturation_w)
    noise_eff = bud.bs_noise_w + float(np.mean(resid_w))
    pil = consts["ul_single" if plan.csi == "sequential" else "ul_joint"]
    shrink = mmse_shrink(pil, noise_eff, bud.ul_gain)
    amp = np.sqrt(noise_eff)
    g_hat = np.hstack([shrink * (yp + amp * n_p) for yp, n_p in ctx["probe"][plan][1]])
    g_hat = g_hat / np.sqrt(bud.ul_gain) * np.sqrt(bud.dl_gain)  # reciprocity
    g_hat[saturated, :] = 0.0  # clipped chains yield no usable estimate
    w = _zf_or_none(g_hat.T)
    # The scored slot only needs the TX distortion the UEs see, which
    # `_point_dl` takes; its receive side was already measured with the probe.
    return None if w is None else (ctx["rows"], w)


# ---------------------------------------------------------------------------
# scenario d: DOA-trained hybrid downlink, DL rate metric


def _draw_d(cfg: ScenarioConfig, rng: np.random.Generator) -> dict:
    arch = cfg.arch
    theta = rng.uniform(-np.pi / 3, np.pi / 3)  # served sector
    psi = rng.uniform(0.0, 2.0 * np.pi, size=2)
    los_dl = np.exp(1j * (np.pi * np.arange(arch.n_tx) * np.sin(theta) + psi[0]))[None, :]
    los_ul = np.exp(1j * (np.pi * np.arange(arch.n_rx) * np.sin(theta) + psi[1]))[:, None]
    h_dl = gen_rician(RicianParams(cfg.kappa_ue_db, 1, arch.n_tx), rng, los=los_dl)
    h_ul = gen_rician(RicianParams(cfg.kappa_ue_db, arch.n_rx, 1), rng, los=los_ul)
    h_si = gen_rician(RicianParams(cfg.kappa_si_db, arch.n_rx, arch.n_tx), rng)
    return {
        "theta": theta,
        "h_dl": h_dl,
        "h_ul": h_ul,
        "h_si": h_si,
        "n_cal": complex_gaussian(rng, arch.n_rx_rf, cfg.packet_symbols),
        "s_dl": complex_gaussian(rng, 1, cfg.packet_symbols),
        "n_slot": complex_gaussian(rng, arch.n_rx_rf, cfg.packet_symbols),
    }


def _interferometric_doa(z: np.ndarray, rows: np.ndarray, coarse: float) -> float:
    """Refine a grid DOA with the phase slope of an adjacent chain pair.

    The beam grid is coarser than the pointing accuracy a long transmit
    array needs: a grid step of sin(theta) scrambles the inter-subarray
    phase completely.  The half-wavelength pair resolves sin(theta)
    continuously and without ambiguity inside the served sector, so the
    coarse beam only arbitrates wild estimates.
    """
    if len(rows) < 2 or rows[1] - rows[0] != 1:
        return coarse
    corr = np.mean(z[rows[1]] * np.conj(z[rows[0]]))
    if corr == 0:
        return coarse
    return float(np.arcsin(np.angle(corr) / np.pi))


def _d_angle(consts: dict, z: np.ndarray, alive: np.ndarray) -> float:
    """Scenario d's pointing angle from a training slot `z` at the receive
    chains: the DOA sweep over the chains flagged in `alive`, refined by
    the phase slope of an adjacent pair of them; the first codeword's
    angle when every chain clipped."""
    if not np.any(alive):
        return float(consts["d_angles"][0])  # training slot lost to clipping
    coarse = doa_estimate(z[alive], consts["d_sweep"][:, alive], consts["d_angles"])
    return _interferometric_doa(z, np.flatnonzero(alive), coarse)


@dataclass(frozen=True)
class _Beam:
    """One analog beam of scenario d and what follows from it in a trial."""

    f_tx: np.ndarray  # analog beamformer of the codeword, shared by the run
    h_dl_eff: np.ndarray  # DL channel through the beam
    taps: Dict[str, _Taps]  # one canceller per tap choice of the FD plans, on the beam's SI


def _d_beam(cfg: ScenarioConfig, consts: dict, ctx: dict, idx: int) -> _Beam:
    """The trial's entry for codeword `idx`, built on its first use.

    Everything in it is fixed by the draw and the codeword, so the HD
    pointing, the warm-up and scored passes and every power share it.
    """
    beams = ctx["beams"]
    if idx not in beams:
        bud = cfg.budget
        f_tx = consts["d_f_tx"][idx]
        taps: Dict[str, _Taps] = {}
        if ctx["fd"]:
            h_si = effective_si_channel(ctx["h_si"], f_tx, np.eye(cfg.arch.n_rx, dtype=complex))
            _, taps = _trial_taps(cfg, consts, h_si, ctx["n_cal"], ctx["fd"])
        h_dl_eff = _ro(np.sqrt(bud.dl_gain) * (ctx["h_dl"] @ f_tx))
        beams[idx] = _Beam(f_tx, h_dl_eff, taps)
    return beams[idx]


def _d_point(
    cfg: ScenarioConfig, consts: dict, ctx: dict, theta: float
) -> Tuple[_Beam, np.ndarray]:
    """The beam for a pointing angle and the digital weight matched to it."""
    arch = cfg.arch
    beam = _d_beam(cfg, consts, ctx, beam_select_doa(theta, consts["tx_book"]))
    a_full = np.exp(1j * np.pi * np.arange(arch.n_tx) * np.sin(theta))
    w = (a_full @ beam.f_tx).conj()[:, None]
    norm = np.linalg.norm(w)
    if norm > 0:
        w = w / norm
    return beam, w


def _prepare_d(cfg: ScenarioConfig, consts: dict, draw: dict, plans: List[_Plan]) -> dict:
    """Per-trial context: every pointing that does not depend on the power.

    That is the true angle's beam and matched weight (ideal CSI's beam and
    the full-duplex warm-up's first pointing, `ctx["true"]`), ideal CSI's
    pointing, the HD angle estimate's pointing with its TX distortion at
    unit power (trained at the fixed `ul_power_dbm`), and the full-duplex
    slot's UL pilot and noise.  `ctx["beams"]` memoizes each codeword's
    channels and cancellers.
    """
    bud = cfg.budget
    pil_w = dbm_to_watt(bud.ul_power_dbm)
    h_ul = np.sqrt(bud.ul_gain) * draw["h_ul"]
    ctx = dict(draw)
    ctx["fd"] = [plan for plan in plans if plan.duplex == "fd" and plan.csi != "perfect"]
    ctx["beams"] = {}  # codeword index -> _Beam
    perfect = any(plan.csi == "perfect" for plan in plans)
    if perfect or ctx["fd"]:
        beam, w = _d_point(cfg, consts, ctx, draw["theta"])
        ctx["true"] = (beam, _ro(w))
        if perfect:
            h_eff = beam.h_dl_eff
            w = _ro(h_eff.conj().T / np.linalg.norm(h_eff))
            ctx["ideal"] = (h_eff, w, _ro(np.zeros(len(h_eff))))
    if any(plan.duplex == "hd" for plan in plans):
        y = h_ul * np.sqrt(pil_w) + np.sqrt(bud.bs_noise_w) * draw["n_slot"][:, : cfg.hd_pilot_len]
        theta_hat = _d_angle(consts, y, np.ones(len(y), dtype=bool))
        beam, w = _d_point(cfg, consts, ctx, theta_hat)
        ctx["hd"] = _fixed_pointing(cfg, beam.h_dl_eff, _ro(w), draw["s_dl"])
    if ctx["fd"]:
        ctx["ul"] = _ro(h_ul @ (np.sqrt(pil_w) * np.ones((1, cfg.packet_symbols))))
        ctx["noise"] = _ro(np.sqrt(bud.bs_noise_w) * draw["n_slot"])
    return ctx


def _d_fd_point(
    cfg: ScenarioConfig, consts: dict, ctx: dict, p_w: float, plan: _Plan
) -> Optional[tuple]:
    """Full duplex: the pointing angle in use came from last slot's training
    under the same interference conditions.  One warm-up pass from the true
    angle stands in for that history; the second pass is the scored slot.
    Returns the pointing (rows, w) for `_point_dl`, or None when a
    projection is infeasible."""
    bud = cfg.budget
    beam, w = ctx["true"]
    taps = beam.taps[plan.taps]
    w = _project(bud, plan, taps, w, p_w)
    if w is None:
        return None
    x = np.sqrt(p_w) * (w @ ctx["s_dl"])
    x_tx = apply_tx_chain(x, cfg.impairments) if plan.impaired else x
    _, z, saturated = _fd_receive(
        taps, x, x_tx, ctx["ul"], ctx["noise"], plan.digital, bud.rx_saturation_w
    )
    beam, w = _d_point(cfg, consts, ctx, _d_angle(consts, z, ~saturated))
    w = _project(bud, plan, beam.taps[plan.taps], w, p_w)
    return None if w is None else (beam.h_dl_eff, w)


# ---------------------------------------------------------------------------
# scenarios c and d: single-antenna UEs served in the DL only


def _ue_distortion(cfg: ScenarioConfig, rows: np.ndarray, x: Optional[np.ndarray]) -> np.ndarray:
    """Per-UE power of the TX distortion of burst `x` seen through the UE
    `rows`; zero for an unimpaired transmitter (`x` None)."""
    if x is None:
        return np.zeros(len(rows))
    dist = apply_tx_chain(x, cfg.impairments) - x
    return np.mean(np.abs(rows @ dist) ** 2, axis=1)


def _fixed_pointing(
    cfg: ScenarioConfig, rows: np.ndarray, w: np.ndarray, s_dl: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A pointing fixed for the trial: (rows, w, per-UE TX distortion power
    of the unit-power burst w s_dl).  `apply_tx_chain` is homogeneous in
    the amplitude, so at power p the distortion power is p times this."""
    return rows, w, _ro(_ue_distortion(cfg, rows, w @ s_dl))


def _point_dl(
    fd_point: Callable, cfg: ScenarioConfig, consts: dict, ctx: dict, power_dbm: float,
    plans: List[_Plan],
) -> List[Optional[tuple]]:
    """Every plan's downlink pointing at one power, up to the rates.

    Returns one item per plan for `_rate_dl`: None for a scheme left
    without a precoder, else (power, UE rows with the DL gain, unit-norm
    precoder, per-UE TX distortion power).  Ideal CSI and half duplex
    point once per trial, so the power only scales their distortion; each
    full-duplex plan trains and points again through the scenario's
    `fd_point`, and its burst sqrt(p) w s_dl is formed and distorted here,
    one burst at a time.
    """
    p_w = dbm_to_watt(power_dbm)
    out: List[Optional[tuple]] = []
    for plan in plans:
        if plan.csi == "perfect" or plan.duplex == "hd":
            pointing = ctx["ideal" if plan.csi == "perfect" else "hd"]
            if pointing is not None:
                rows, w, dist = pointing
                pointing = (p_w, rows, w, p_w * dist)
        else:
            pointing = fd_point(cfg, consts, ctx, p_w, plan)
            if pointing is not None:
                rows, w = pointing
                x = np.sqrt(p_w) * (w @ ctx["s_dl"]) if plan.impaired else None
                pointing = (p_w, rows, w, _ue_distortion(cfg, rows, x))
        out.append(pointing)
    return out


def _sinr_rates(
    noise_w: float, p_w: np.ndarray, rows: np.ndarray, w: np.ndarray, dist: np.ndarray
) -> np.ndarray:
    """Sum of per-UE log rates of a stack of pointings; UEs cannot
    cooperate, so no joint decoding.

    Along the leading axis: powers, UE rows (UEs x chains), precoders
    (chains x streams) and per-UE TX distortion powers.  Stream k serves
    UE k; the other streams interfere.
    """
    gains = np.abs(rows @ w) ** 2 * p_w[:, None, None]  # power of stream j at UE k
    sig = np.diagonal(gains, axis1=-2, axis2=-1)
    intf = np.sum(gains, axis=-1) - sig
    return np.sum(np.log2(1.0 + sig / (intf + dist + noise_w)), axis=-1)


def _rate_dl(
    cfg: ScenarioConfig, ctx: dict, items: List[Optional[tuple]]
) -> List[Tuple[float, float]]:
    """(DL, UL) rates of every (power, plan) item of the trial, in order;
    the UL carries no data.

    The items are rated at once, one stack per shape of UE rows and
    precoder.  A None item scores 0.
    """
    rates = _stacked(
        partial(_sinr_rates, cfg.budget.ue_noise_w),
        [None if it is None else (it[1].shape, it[2].shape) for it in items],
        *zip(*(it or (None,) * 4 for it in items)),
    )
    return [(0.0 if rate is None else float(rate), 0.0) for rate in rates]


# ---------------------------------------------------------------------------
# drivers


def _run_constants(cfg: ScenarioConfig) -> Dict[object, object]:
    """What the config fixes for the whole run, built and checked once,
    all read-only.

    Pilot matrices, with the powers the config fixes folded in.  The DL
    and UL sounding pilots of scenarios a and b follow the swept power:
    they are scaled for each power of the sweep, under keys ("dl", power)
    and ("ul", power).  The transmit codebook of a, b
    and d and the receive codebook of a and b.  Scenario d adds its beam
    grid: the codeword angles, the DOA sweep over them and the analog
    beamformer of each codeword, built from the transmit codebook.
    """
    arch = cfg.arch
    # c and d train over the whole packet.
    lp = cfg.pilots.num_pilots if cfg.scenario in ("a", "b") else cfg.packet_symbols
    cal_w = dbm_to_watt(cfg.pilots.power_dbm)
    consts = {"si_cal": np.sqrt(cal_w / arch.n_tx_rf) * orthogonal_pilots(arch.n_tx_rf, lp)}
    if cfg.scenario in ("a", "b"):
        dl = orthogonal_pilots(arch.n_tx_rf, lp)
        ul = orthogonal_pilots(cfg.ul_streams, lp)
        for p in cfg.power_sweep_dbm:
            consts["dl", p] = np.sqrt(dbm_to_watt(p) / arch.n_tx_rf) * dl
            consts["ul", p] = np.sqrt(dbm_to_watt(p) / cfg.ul_streams) * ul
    elif cfg.scenario == "c":
        amp = np.sqrt(dbm_to_watt(cfg.budget.ul_power_dbm))
        consts["ul_joint"] = amp * orthogonal_pilots(cfg.num_ue, lp)
        consts["ul_single"] = amp * orthogonal_pilots(1, lp)
        consts["ul_hd"] = amp * orthogonal_pilots(cfg.num_ue, cfg.hd_pilot_len)
    out: Dict[object, object] = {name: Pilots(_ro(a)) for name, a in consts.items()}
    if cfg.scenario != "c":
        out["tx_book"] = _ro(dft_codebook(arch.tx_subarray, arch.phase_bits))
    if cfg.scenario in ("a", "b"):
        out["rx_book"] = _ro(dft_codebook(arch.rx_subarray, arch.phase_bits))
    if cfg.scenario == "d":
        angles = dft_beam_angles(arch.tx_subarray)
        out["d_angles"] = _ro(angles)
        out["d_sweep"] = _ro(np.vstack([steering_vector(arch.n_rx_rf, a) for a in angles]))
        out["d_f_tx"] = tuple(
            _ro(assemble_analog_bf([idx] * arch.n_tx_rf, out["tx_book"]))
            for idx in range(arch.tx_subarray)
        )
    return out


@dataclass(frozen=True)
class _Driver:
    """How one scenario runs a trial: `draw` it from the RNG, `prepare` its
    power-free context, take each power through `stage` to one item per
    plan, and `finish` every item of the trial into (DL, UL) rates in one
    pass.  A half-duplex scheme keeps the `hd_share` of its rates: half
    of each in a and b, which alternate DL and UL half slots, and the DL
    data fraction in c and d."""

    draw: Callable
    prepare: Callable
    stage: Callable
    finish: Callable
    hd_share: Callable[[ScenarioConfig], float]


_DRIVERS: Dict[str, _Driver] = {
    "a": _Driver(_draw_ab, _prepare_ab, _receive_ab, _score_ab, lambda cfg: 0.5),
    "b": _Driver(_draw_ab, _prepare_ab, _receive_ab, _score_ab, lambda cfg: 0.5),
    "c": _Driver(_draw_c, _prepare_c, partial(_point_dl, _c_fd_point), _rate_dl,
                 lambda cfg: cfg.dl_data_fraction),
    "d": _Driver(_draw_d, _prepare_d, partial(_point_dl, _d_fd_point), _rate_dl,
                 lambda cfg: cfg.dl_data_fraction),
}


class TrialError(RuntimeError):
    """A trial of `run_scenario` failed.

    The message names the scenario, seed, trial index and, as far as the
    trial got, the power and scheme, so that `run_trial` can replay it.
    The original fault is chained as `__cause__`.
    """


def _trial_label(cfg: ScenarioConfig, trial: int) -> str:
    return f"scenario {cfg.scenario}, seed {cfg.seed}, trial {trial}"


def _eval_draw(
    cfg: ScenarioConfig, consts: dict, rng: np.random.Generator, trial: Optional[int] = None
) -> List[List[Tuple[float, float]]]:
    """(DL, UL) rates per power and scheme of `cfg` for one trial drawn
    from `rng`.

    Draws the trial and builds its context once, then takes every power
    through the per-power stage; one rate pass then scores the whole
    trial, whose pairs are regrouped per power, half-duplex schemes at
    their share.  Given the `trial` index, a fault is re-raised as
    TrialError naming where it happened.
    """
    plans = [_PLANS[cfg.scenario][s] for s in cfg.schemes]
    drv = _DRIVERS[cfg.scenario]
    ctx = power_dbm = None
    try:
        ctx = drv.prepare(cfg, consts, drv.draw(cfg, rng), plans)
        items = []
        for power_dbm in cfg.power_sweep_dbm:
            items += drv.stage(cfg, consts, ctx, power_dbm, plans)
        power_dbm = None
        pairs = iter(drv.finish(cfg, ctx, items))  # one power's row at a time, below
    except Exception as exc:
        if trial is None:
            raise
        where = _trial_label(cfg, trial)
        if ctx is None:
            where += " (set-up)"
        else:
            # A fault in the rate pass may lie at any power.
            tried = cfg.power_sweep_dbm if power_dbm is None else [power_dbm]
            power_dbm, scheme = _failing_point(cfg, consts, ctx, drv, tried)
            if power_dbm is not None:
                where += f", power {power_dbm:g} dBm"
            if scheme is not None:
                where += f", scheme {scheme}"
        raise TrialError(f"{where}: {type(exc).__name__}: {exc}") from exc
    share = drv.hd_share(cfg)
    return [
        [(share * dl, share * ul) if plan.duplex == "hd" else (dl, ul)
         for plan, (dl, ul) in zip(plans, pairs)]
        for _ in cfg.power_sweep_dbm
    ]


def _failing_point(
    cfg, consts, ctx, drv: _Driver, powers: Sequence[float]
) -> Tuple[Optional[float], Optional[str]]:
    """The first (power, scheme) of the tried `powers` that also fails when
    scored alone, as `run_trial` scores it: a failed stack does not say
    which member.  When no single point reproduces the fault, the scheme
    is None, and so is the power unless only one was tried."""
    if len(powers) * len(cfg.schemes) == 1:
        return powers[0], cfg.schemes[0]
    for p in powers:
        for scheme in cfg.schemes:
            plan = [_PLANS[cfg.scenario][scheme]]
            try:
                drv.finish(cfg, ctx, drv.stage(cfg, consts, ctx, p, plan))
            except Exception:  # noqa: BLE001  any fault reproduces the stacked one
                return p, scheme
    return (powers[0] if len(powers) == 1 else None), None


def run_trial(
    cfg: ScenarioConfig, power_dbm: float, scheme: str, rng: np.random.Generator
) -> Tuple[float, float]:
    """Single Monte Carlo trial; returns the (DL, UL) rate pair in bps/Hz."""
    cfg = dataclasses.replace(cfg, power_sweep_dbm=(power_dbm,), schemes=(scheme,))
    return _eval_draw(cfg, _run_constants(cfg), rng)[0][0]


def _trial_rates(cfg: ScenarioConfig, consts: dict, trial: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(trial,)))
    pairs = _eval_draw(cfg, consts, rng, trial)
    out = np.array([[dl + ul for dl, ul in row] for row in pairs])
    bad = np.argwhere(~np.isfinite(out))
    if len(bad):
        ip, isch = bad[0]
        raise TrialError(
            f"{_trial_label(cfg, trial)}, power {cfg.power_sweep_dbm[ip]:g} dBm, "
            f"scheme {cfg.schemes[isch]}: rate is not finite ({out[ip, isch]})"
        )
    order = np.argsort(cfg.power_sweep_dbm, kind="stable")
    for isch, scheme in enumerate(cfg.schemes):
        plan = _PLANS[cfg.scenario][scheme]
        if plan.csi == "perfect" and not plan.impaired:
            if np.any(np.diff(out[order, isch]) < -1e-9):
                raise TrialError(
                    f"{_trial_label(cfg, trial)}, scheme {scheme}: rate decreased with power"
                )
    return out


# Fewest trials a worker process is given by default: below it, forking
# the pool costs more than the trials it shares out.
_MIN_TRIALS_PER_WORKER = 3

# The run a trial worker serves: set by `_serve` in each forked worker as
# it starts, never in the calling process.
_SERVED: Optional[Tuple[ScenarioConfig, dict]] = None


# Thread-count setters of the OpenBLAS that numpy's wheels bundle, newest
# releases first.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads",
)


def _openblas() -> Optional[object]:
    """The OpenBLAS library that numpy's wheel bundles (`numpy.libs` on
    Linux, `numpy/.dylibs` on macOS), or None: another BLAS, or numpy
    built some other way."""
    root = os.path.dirname(np.__file__)
    for folder in (root + ".libs", os.path.join(root, ".dylibs")):
        try:
            names = sorted(os.listdir(folder))
        except OSError:
            continue
        for name in names:
            if "openblas" in name:
                return ctypes.CDLL(os.path.join(folder, name))
    return None


# glibc's `mallopt` settings for a trial worker, (parameter, bytes):
# M_MMAP_THRESHOLD, so that blocks under 4 MiB come from the heap, and
# M_TRIM_THRESHOLD, so that up to 8 MiB of free heap top stays mapped.
_MALLOPT = ((-3, 4 << 20), (-1, 8 << 20))


def _serve(cfg: ScenarioConfig, consts: dict) -> None:
    """Start a trial worker: keep the run, cut BLAS to one thread, and
    fix the C allocator's thresholds.

    The pool runs one worker per core, so BLAS threads on top of it
    oversubscribe the cores: on 2 cores at OpenBLAS's default of a
    thread per core, scenario c's default run took 1.9-2.6 s on 2
    workers against 1.3-1.7 s serially.

    glibc serves a block over its mmap threshold by mmap and returns it
    to the kernel on free, so a trial may fault its packet-length arrays
    in afresh.  Whether it does depends on how far the process's earlier
    frees have raised glibc's dynamic threshold, and a worker inherits
    that from its parent: on 2 cores, a default 20-trial scenario-a run
    with the modules' bytecode cached took 88k minor faults in its two
    workers.  Fixed thresholds make a worker reuse its heap whatever its
    parent did; the same run then takes about 5.5k faults, the fork's
    own.  Where the C library has no `mallopt`, they stay unset."""
    global _SERVED
    _SERVED = cfg, consts
    lib = _openblas()
    name = next((name for name in _OPENBLAS_SETTERS if hasattr(lib, name)), None)
    if name is not None:
        getattr(lib, name)(1)
    libc = ctypes.CDLL(None)
    if hasattr(libc, "mallopt"):
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        for param, value in _MALLOPT:
            libc.mallopt(param, value)


def _chunk_rates(start: int, stop: int) -> np.ndarray:
    cfg, consts = _SERVED
    return np.stack([_trial_rates(cfg, consts, t) for t in range(start, stop)])


def _forks() -> bool:
    """Whether trials may run on forked workers.  Not where the platform
    cannot fork, and not on Python 3.12 or later: there `os.fork` warns
    (DeprecationWarning) in a process that has threads, as numpy's BLAS
    pool does, and the fork-after-threads hazard behind that warning has
    not been checked on those versions."""
    if sys.version_info >= (3, 12):
        return False
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _workers(trials: int, jobs: Optional[int]) -> int:
    """Worker processes for a run of `trials`; 1 runs the trials in this
    process.  By default one per available core, each with at least
    `_MIN_TRIALS_PER_WORKER` trials; never more than one per trial, and
    none where trials may not fork (`_forks`)."""
    if jobs is None:
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:  # no CPU affinity on this platform
            cores = os.cpu_count() or 1
        jobs = max(1, min(cores, trials // _MIN_TRIALS_PER_WORKER))
    elif isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    jobs = min(jobs, trials)
    if jobs > 1 and not _forks():
        return 1
    return jobs


def _pooled_rates(cfg: ScenarioConfig, consts: dict, jobs: int, rates: np.ndarray) -> None:
    """Fill `rates` on `jobs` forked workers, each given one contiguous
    chunk of trials, and write each chunk back by trial index.

    The workers inherit `cfg` and `consts` from the fork, not as pickled
    copies, so the shared arrays stay read-only.  A chunk that fails is
    replayed here: trials are deterministic, so the replay raises the same
    first TrialError as the serial loop, with its own cause rather than
    the pool's stand-in for the worker's traceback.  A worker that dies
    breaks every unfinished chunk, so the TrialError it raises names the
    trials from the first unfinished chunk to the last trial, and the
    serial loop (`jobs=1`) finds the one that failed.  Every worker has
    exited when this returns or raises.
    """
    import multiprocessing
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def submit(start: int, stop: int) -> Future:
        # The first submit forks every worker, so one can die, and break
        # the pool, before the last chunk is queued.
        try:
            return pool.submit(_chunk_rates, start, stop)
        except BrokenProcessPool as exc:
            future = Future()
            future.set_exception(exc)
            return future

    edges = [cfg.trials * k // jobs for k in range(jobs + 1)]
    chunks = list(zip(edges[:-1], edges[1:]))
    with ProcessPoolExecutor(
        jobs, mp_context=multiprocessing.get_context("fork"),
        initializer=_serve, initargs=(cfg, consts),
    ) as pool:
        futures = [submit(start, stop) for start, stop in chunks]
        for (start, stop), future in zip(chunks, futures):
            try:
                rates[start:stop] = future.result()
            except BrokenProcessPool as exc:
                raise TrialError(
                    f"scenario {cfg.scenario}, seed {cfg.seed}, trials {start}-{cfg.trials - 1}: "
                    f"a worker process died in one of them ({exc}); "
                    f"run them with jobs=1 to find the trial"
                ) from exc
            except Exception:  # noqa: BLE001  any fault is replayed as the serial loop meets it
                for t in range(start, stop):
                    rates[t] = _trial_rates(cfg, consts, t)


def run_scenario(cfg: ScenarioConfig, jobs: Optional[int] = None) -> List[CurvePoint]:
    """Sweep power and schemes over `cfg.trials` Monte Carlo trials.

    Work is staged by what it depends on, as the module docstring sets
    out: per run, per trial, and per power up to one rate pass per trial.

    Trials run on `jobs` worker processes forked from this one, each
    given one contiguous chunk of trial indices.  `jobs=1` runs them in
    this process, as does every run where trials may not fork (`_forks`:
    Python 3.12 or later, or no `fork`).  The default is one worker per
    available core, with at least `_MIN_TRIALS_PER_WORKER` trials each.
    Each trial draws from its own child seed and fills its own row, so
    the curves do not depend on `jobs`.  Functions patched in this
    process reach the workers, but what the workers record (call counts,
    traces, profiles) stays in theirs; count or profile with `jobs=1`.
    With trials=1 each point equals `run_trial` seeded with
    SeedSequence(entropy=seed, spawn_key=(0,)).  A failing trial, or one
    that scores a non-finite rate, raises TrialError, the same one
    whatever `jobs` is; so does a worker that dies.  No worker outlives
    the call.
    """
    consts = _run_constants(cfg)
    rates = np.zeros((cfg.trials, len(cfg.power_sweep_dbm), len(cfg.schemes)))
    jobs = _workers(cfg.trials, jobs)
    if jobs > 1:
        _pooled_rates(cfg, consts, jobs, rates)
    else:
        for t in range(cfg.trials):
            rates[t] = _trial_rates(cfg, consts, t)
    points = []
    for isch, scheme in enumerate(cfg.schemes):
        for ip, p in enumerate(cfg.power_sweep_dbm):
            vals = rates[:, ip, isch]
            err = float(vals.std(ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
            points.append(CurvePoint(float(p), scheme, float(vals.mean()), err, cfg.trials))
    points.sort(key=lambda c: (c.scheme, c.power_dbm))
    return points
