"""Monte Carlo link simulation of a full-duplex massive MIMO base station.

Four scenario geometries are modeled:

  a  small fully digital array serving one multi-antenna UE per direction
  b  hybrid mmWave array (sub-array beamforming) with one UE per direction
  c  fully digital multi-user cell with reciprocal channels and CSI aging
  d  hybrid downlink steered from uplink direction-of-arrival training

Every scheme of a scenario is evaluated on the same channel draws, noise
draws and data bursts (common random numbers), so per-power curves are
paired across schemes and runs are reproducible for a given seed no matter
how many worker threads reduce the trial loop.

The trial loop is staged by what each quantity depends on:

  per run    pilot matrices, fixed by the config (`_run_constants`)
  per trial  the draw plus everything independent of the transmit power:
             beams and effective channels, the SI calibration estimate,
             one canceller per (taps, layout), and in scenario c the
             probe, half-duplex and ideal-CSI precoders (`_prepare_ab`,
             `_prepare_c`); scenario d works from the draw alone
  per power  what the schemes share (channel estimates, UL burst, one
             precoded burst per distinct precoder in a and b), then each
             scheme is scored

Arrays shared across schemes or powers are read-only, so an in-place
write by one scheme fails instead of leaking into the next.  Nothing of
packet length outlives its power point.

Rates are spectral efficiencies in bps/Hz.  A trial returns a (DL, UL)
pair; scenarios c and d carry data in the DL only and report UL as zero.
Half-duplex baselines return the two half-slot (or 90% DL slot) rates
already weighted, so DL + UL is always the headline sum rate.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from fdmimo.beamforming import (
    ArchitectureConfig,
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
    CancellerState,
    InfeasibleProjectionError,
    RegressorRankError,
    SaturationSpec,
    apply_digital_canceller,
    check_saturation,
    effective_si_channel,
    select_taps,
    select_taps_by_row,
    set_tap_gains,
    si_aware_precoder_projection,
    train_digital_canceller,
)
from fdmimo.channel import (
    AgingParams,
    ClusteredParams,
    RicianParams,
    complex_gaussian,
    evolve_gauss_markov,
    gen_clustered_mmwave,
    gen_rayleigh,
    gen_rician,
    steering_vector,
)
from fdmimo.estimation import mmse_estimate, orthogonal_pilots, doa_estimate, PilotConfig
from fdmimo.impairments import TxImpairmentConfig, apply_tx_chain, dbm_to_watt


@dataclass(frozen=True)
class LinkBudget:
    """Scalar link gains, noise floors and front-end limits.

    Pathloss and isolation are positive dB losses.  `ul_power_dbm` is the
    fixed UE training/transmit power in the multi-user and DOA scenarios;
    scenarios a and b drive the UL UE at the swept DL power instead.
    """

    dl_pathloss_db: float = 100.0
    ul_pathloss_db: float = 100.0
    si_isolation_db: float = 40.0
    bs_noise_dbm: float = -110.0
    ue_noise_dbm: float = -90.0
    rx_saturation_dbm: float = -20.0
    ul_power_dbm: float = 10.0

    def __post_init__(self):
        if min(self.dl_pathloss_db, self.ul_pathloss_db, self.si_isolation_db) < 0:
            raise ValueError("pathloss and isolation must be nonnegative dB losses")

    @property
    def dl_gain(self) -> float:
        return 10.0 ** (-self.dl_pathloss_db / 10.0)

    @property
    def ul_gain(self) -> float:
        return 10.0 ** (-self.ul_pathloss_db / 10.0)

    @property
    def si_gain(self) -> float:
        return 10.0 ** (-self.si_isolation_db / 10.0)

    @property
    def bs_noise_w(self) -> float:
        return dbm_to_watt(self.bs_noise_dbm)

    @property
    def ue_noise_w(self) -> float:
        return dbm_to_watt(self.ue_noise_dbm)


_SCENARIOS = ("a", "b", "c", "d")


@dataclass(frozen=True)
class _Plan:
    """How one scheme wires the transceiver for a trial."""

    taps: str = "config"  # "config" | "full" | "none"
    layout: str = "row"  # "row" | "greedy"
    digital: bool = True
    impaired: bool = True
    duplex: str = "fd"  # "fd" | "hd"
    csi: str = "estimated"  # "estimated" | "sequential" | "perfect"
    budget: str = "saturation"  # projection budget: "saturation" | "noise"
    null_depth: bool = False  # fixed half-dimension null-space projection


_PLANS: Dict[str, Dict[str, _Plan]] = {
    "a": {
        "proposed": _Plan(),
        "proposed-ideal": _Plan(impaired=False),
        "benchmark": _Plan(
            taps="full", layout="greedy", digital=False, budget="noise", null_depth=True
        ),
        "benchmark-ideal": _Plan(
            taps="full",
            layout="greedy",
            digital=False,
            impaired=False,
            budget="noise",
            null_depth=True,
        ),
        "hd": _Plan(taps="none", digital=False, duplex="hd"),
    },
    "b": {
        "proposed": _Plan(),
        "benchmark": _Plan(taps="none", digital=False, budget="noise"),
        "hd": _Plan(taps="none", digital=False, duplex="hd"),
    },
    "c": {
        "proposed": _Plan(),
        "benchmark": _Plan(taps="full", layout="greedy", csi="sequential"),
        "ideal-csi": _Plan(taps="full", layout="greedy", digital=False, impaired=False, csi="perfect"),
        "hd": _Plan(taps="none", digital=False, duplex="hd"),
    },
    "d": {
        "proposed": _Plan(),
        "benchmark": _Plan(taps="full", layout="greedy"),
        "ideal-csi": _Plan(taps="full", layout="greedy", digital=False, impaired=False, csi="perfect"),
        "hd": _Plan(taps="none", digital=False, duplex="hd"),
    },
}


def allowed_schemes(scenario: str) -> Tuple[str, ...]:
    """Scheme labels defined for a scenario, in canonical order."""
    if scenario not in _PLANS:
        raise ValueError(f"unknown scenario {scenario!r}")
    return tuple(_PLANS[scenario])


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation campaign."""

    scenario: str
    arch: ArchitectureConfig
    budget: LinkBudget = LinkBudget()
    impairments: TxImpairmentConfig = TxImpairmentConfig()
    pilots: PilotConfig = PilotConfig()
    aging: Optional[AgingParams] = None
    power_sweep_dbm: Tuple[float, ...] = (0.0,)
    trials: int = 100
    seed: int = 0
    schemes: Tuple[str, ...] = ("proposed",)
    num_ue: int = 1
    num_paths: int = 7
    dl_ue_antennas: int = 1
    ul_ue_antennas: int = 1
    ul_streams: int = 1
    kappa_si_db: float = 30.0
    kappa_ue_db: float = 20.0
    packet_symbols: int = 1000
    dl_data_fraction: float = 0.9
    hd_pilot_fraction: float = 0.1

    def __post_init__(self):
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"scenario must be one of {_SCENARIOS}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if len(self.power_sweep_dbm) < 1:
            raise ValueError("power_sweep_dbm must not be empty")
        if not all(np.isfinite(self.power_sweep_dbm)):
            raise ValueError("power_sweep_dbm entries must be finite")
        if len(self.schemes) < 1:
            raise ValueError("schemes must not be empty")
        legal = allowed_schemes(self.scenario)
        for s in self.schemes:
            if s not in legal:
                raise ValueError(
                    f"scheme {s!r} not defined for scenario {self.scenario!r}; "
                    f"choose from {legal}"
                )
        if self.scenario in ("a", "c") and self.arch.bf_mode != "digital":
            raise ValueError(f"scenario {self.scenario!r} uses a fully digital array")
        if self.scenario in ("b", "d") and self.arch.bf_mode != "hybrid":
            raise ValueError(f"scenario {self.scenario!r} uses a hybrid array")
        if min(self.num_ue, self.dl_ue_antennas, self.ul_ue_antennas, self.ul_streams) < 1:
            raise ValueError("UE counts, antennas and streams must be >= 1")
        if self.ul_streams > self.ul_ue_antennas:
            raise ValueError("ul_streams cannot exceed ul_ue_antennas")
        if self.scenario == "c":
            if self.aging is None:
                raise ValueError("scenario 'c' requires aging parameters")
            if self.num_ue > self.arch.n_tx_rf:
                raise ValueError("cannot zero-force more UEs than transmit chains")
            if self.pilots.num_pilots < self.num_ue:
                raise ValueError("need at least one pilot symbol per UE")
        if self.scenario in ("a", "b") and self.pilots.num_pilots < self.arch.n_tx_rf:
            raise ValueError("need at least one pilot symbol per transmit chain")
        if self.scenario in ("c", "d") and self.pilots.num_pilots != self.packet_symbols:
            raise ValueError(
                "scenarios 'c' and 'd' train over the whole packet: "
                "pilots.num_pilots must equal packet_symbols"
            )
        if self.packet_symbols < 3 * self.arch.n_tx_rf:
            raise ValueError("packet_symbols must cover the digital canceller basis")
        if not 0.0 < self.dl_data_fraction <= 1.0:
            raise ValueError("dl_data_fraction must lie in (0, 1]")
        hd_len = int(round(self.hd_pilot_fraction * self.packet_symbols))
        if hd_len < 1:
            raise ValueError("hd_pilot_fraction leaves no training symbols")

    @property
    def hd_pilot_len(self) -> int:
        return int(round(self.hd_pilot_fraction * self.packet_symbols))


@dataclass(frozen=True)
class CurvePoint:
    """One point of a rate-versus-power curve."""

    power_dbm: float
    scheme: str
    mean_rate_bps_hz: float
    std_err: float
    trials: int


def default_scenario(code: str) -> ScenarioConfig:
    """Reference configuration of a scenario, matching the bundled JSON files."""
    if code == "a":
        return ScenarioConfig(
            scenario="a",
            arch=ArchitectureConfig(4, 4, 4, 4, phase_bits=3, num_taps=12, bf_mode="digital"),
            budget=LinkBudget(),
            pilots=PilotConfig(num_pilots=40, power_dbm=10.0, num_streams=4),
            power_sweep_dbm=tuple(float(p) for p in range(-10, 51, 5)),
            trials=200,
            seed=1,
            schemes=("proposed", "proposed-ideal", "benchmark", "benchmark-ideal", "hd"),
            dl_ue_antennas=4,
            ul_ue_antennas=4,
            ul_streams=1,
            packet_symbols=1000,
        )
    if code == "b":
        return ScenarioConfig(
            scenario="b",
            arch=ArchitectureConfig(64, 32, 4, 2, phase_bits=3, num_taps=4, bf_mode="hybrid"),
            # Physically separated mmWave panels: much higher passive
            # isolation than the small co-located array of scenario a.
            budget=LinkBudget(si_isolation_db=76.0),
            pilots=PilotConfig(num_pilots=40, power_dbm=10.0, num_streams=4),
            power_sweep_dbm=tuple(float(p) for p in range(5, 46, 5)),
            trials=100,
            seed=1,
            schemes=("proposed", "benchmark", "hd"),
            num_paths=7,
            dl_ue_antennas=4,
            ul_ue_antennas=2,
            ul_streams=2,
            packet_symbols=1000,
        )
    if code == "c":
        return ScenarioConfig(
            scenario="c",
            arch=ArchitectureConfig(8, 8, 8, 8, phase_bits=3, num_taps=32, bf_mode="digital"),
            # Isolation keeps the strongest per-chain residual a few dB
            # under the front-end limit at the top of the power sweep.
            budget=LinkBudget(si_isolation_db=65.0),
            pilots=PilotConfig(num_pilots=400, power_dbm=10.0, num_streams=4),
            aging=AgingParams(doppler_hz=50.0, slot_s=1e-3),
            power_sweep_dbm=tuple(float(p) for p in range(0, 41, 5)),
            trials=200,
            seed=1,
            schemes=("proposed", "benchmark", "ideal-csi", "hd"),
            num_ue=4,
            dl_ue_antennas=1,
            ul_ue_antennas=1,
            packet_symbols=400,
        )
    if code == "d":
        return ScenarioConfig(
            scenario="d",
            arch=ArchitectureConfig(64, 2, 2, 2, phase_bits=3, num_taps=2, bf_mode="hybrid"),
            budget=LinkBudget(),
            pilots=PilotConfig(num_pilots=400, power_dbm=10.0, num_streams=1),
            power_sweep_dbm=tuple(float(p) for p in range(0, 46, 5)),
            trials=200,
            seed=1,
            schemes=("proposed", "benchmark", "ideal-csi", "hd"),
            dl_ue_antennas=1,
            ul_ue_antennas=1,
            # Pointing a 64-element array from a two-chain angle estimate
            # presumes a near-pure LOS access link; weaker Rician factors
            # leave the angle scatter-limited at any SNR.
            kappa_ue_db=40.0,
            packet_symbols=400,
        )
    raise ValueError(f"unknown scenario {code!r}")


def complexity_report(arch: ArchitectureConfig) -> Dict[str, int]:
    """Analog hardware counts for an architecture.

    Phase shifters are counted for both connection styles of a hybrid
    array; tap counts compare an antenna-level canceller, a full
    chain-level canceller and the configured budget.
    """
    return {
        "phase_shifters_partially_connected": arch.n_tx + arch.n_rx,
        "phase_shifters_fully_connected": arch.n_tx * arch.n_tx_rf + arch.n_rx * arch.n_rx_rf,
        "taps_full_antenna": arch.n_tx * arch.n_rx,
        "taps_full_chain": arch.n_tx_rf * arch.n_rx_rf,
        "taps_configured": arch.num_taps,
    }


def dl_rate(
    h_eff: np.ndarray,
    precoder: np.ndarray,
    tx_power_w: float,
    noise_w: float,
    interference_cov: Optional[np.ndarray] = None,
) -> float:
    """log2 det(I + P (HW)(HW)^H C^-1) with C = noise I + interference.

    `h_eff` includes all link gains and `precoder` has unit Frobenius
    norm, so `tx_power_w` is the total radiated power.
    """
    if tx_power_w < 0 or noise_w <= 0:
        raise ValueError("tx_power_w must be >= 0 and noise_w > 0")
    h = np.asarray(h_eff, dtype=complex)
    w = np.asarray(precoder, dtype=complex)
    g = h @ w
    c = noise_w * np.eye(h.shape[0], dtype=complex)
    if interference_cov is not None:
        c = c + np.asarray(interference_cov, dtype=complex)
    return _logdet_gap(c + tx_power_w * (g @ g.conj().T), c)


def ul_rate(
    h_eff: np.ndarray,
    combiner: np.ndarray,
    ul_power_w: float,
    noise_cov: np.ndarray,
) -> float:
    """Achievable rate through an explicit linear combiner.

    The UL power splits equally across the streams (columns of `h_eff`);
    `noise_cov` holds thermal noise plus residual self-interference at the
    receive chains.  Saturated chains are dropped by the caller before the
    call, so a fully saturated receiver never reaches this function.
    """
    if ul_power_w < 0:
        raise ValueError("ul_power_w must be >= 0")
    h = np.asarray(h_eff, dtype=complex)
    u = np.asarray(combiner, dtype=complex)
    g = u.conj().T @ h
    cn = u.conj().T @ np.asarray(noise_cov, dtype=complex) @ u
    per_stream = ul_power_w / h.shape[1]
    return _logdet_gap(cn + per_stream * (g @ g.conj().T), cn)


def _logdet_gap(a: np.ndarray, b: np.ndarray) -> float:
    _, la = np.linalg.slogdet(a)
    _, lb = np.linalg.slogdet(b)
    return float((la - lb) / np.log(2.0))


def _tx_impair(x: np.ndarray, cfg: TxImpairmentConfig) -> np.ndarray:
    """Per-chain impairments at the fixed drive level.

    Each chain is scaled to `cfg.drive_dbm`, distorted, and scaled back,
    so the distortion-to-signal ratio is set by the hardware operating
    point rather than by the commanded output power.
    """
    if not cfg.enabled:
        return x
    p = np.mean(np.abs(x) ** 2, axis=1, keepdims=True)
    scale = np.ones_like(p)
    live = p[:, 0] > 0
    scale[live] = np.sqrt(dbm_to_watt(cfg.drive_dbm) / p[live])
    return apply_tx_chain(x * scale, cfg) / scale


def _digital_cancel(x: np.ndarray, r: np.ndarray, resid_lin: np.ndarray) -> np.ndarray:
    """Digital canceller fit that tolerates rank-deficient chain signals.

    With fewer streams than chains the per-chain signals are linearly
    dependent and the strict trainer rejects them; the minimum-norm least
    squares fit still cancels everything in the transmitted subspace,
    which is all that was radiated.
    """
    try:
        return train_digital_canceller(x, r, resid_lin)
    except RegressorRankError:
        phi = np.vstack([x, x.conj(), x * np.abs(x) ** 2])
        y = r - resid_lin @ x
        fit, *_ = np.linalg.lstsq(phi.conj().T, y.conj().T, rcond=None)
        coeffs = fit.conj().T
        coeffs[:, : x.shape[0]] += resid_lin
        return coeffs


def _ro(a: np.ndarray) -> np.ndarray:
    """Mark an array that several schemes or powers share as read-only.

    An in-place write by one consumer would otherwise leak into the next;
    read-only it fails loudly instead.
    """
    a.setflags(write=False)
    return a


def _pilot_estimate(
    h_true: np.ndarray,
    noise_std: np.ndarray,
    pil: np.ndarray,
    noise_w: float,
    prior_var: float,
) -> np.ndarray:
    """Simulated sounding with the scaled pilot matrix `pil`, then the LMMSE estimate."""
    y = h_true @ pil + np.sqrt(noise_w) * noise_std[:, : pil.shape[1]]
    return mmse_estimate(y, pil, noise_w, prior_var).h_hat


def _build_taps(plan: _Plan, h_si_hat: np.ndarray, configured: int) -> CancellerState:
    if plan.taps == "none":
        support: List[Tuple[int, int]] = []
    elif plan.taps == "full":
        support = select_taps(h_si_hat, h_si_hat.size)
    elif plan.layout == "row":
        support = select_taps_by_row(h_si_hat, configured)
    else:
        support = select_taps(h_si_hat, configured)
    return set_tap_gains(h_si_hat, support)


@dataclass(frozen=True)
class _Taps:
    """Analog canceller of one (taps, layout) choice, fixed for a trial."""

    state: CancellerState
    matrix: np.ndarray  # dense tap matrix C
    resid_lin: np.ndarray  # h_si_hat - C, the linear seed of the digital fit


def _trial_taps(
    plans: List[_Plan], h_si_hat: np.ndarray, configured: int
) -> Dict[Tuple[str, str], _Taps]:
    """One canceller per distinct (taps, layout) among the given plans."""
    taps: Dict[Tuple[str, str], _Taps] = {}
    for plan in plans:
        key = (plan.taps, plan.layout)
        if key not in taps:
            state = _build_taps(plan, h_si_hat, configured)
            _ro(state.gains)
            c = _ro(state.matrix())
            taps[key] = _Taps(state, c, _ro(h_si_hat - c))
    return taps


def _fd_precoder(
    h_dl_hat: np.ndarray,
    h_si_hat: np.ndarray,
    state: Optional[CancellerState],
    null_v: Optional[np.ndarray],
    plan: _Plan,
    max_streams: int,
    mu_w: float,
    p_w: float,
) -> Tuple[Optional[np.ndarray], int]:
    """Eigen precoder plus the plan's self-interference spatial handling.

    `null_v` spans the strong half of the SI channel row space, used by
    plans with a fixed null depth.  Returns (precoder, streams); the
    precoder is None when no stream count admits a feasible projection.
    """
    streams = max_streams
    while streams >= 1:
        w = eigen_precoder(h_dl_hat, streams)
        if plan.duplex == "hd":
            return w, streams
        if plan.null_depth:
            # Transmit in the weak half of the SI channel row space.
            w = w - null_v @ (null_v.conj().T @ w)
            norm = np.linalg.norm(w)
            if norm < 1e-12:
                return None, 0
            return w / norm, streams
        try:
            # The budget is on radiated residual power, the projection
            # helper compares against ||R W||_F^2 with unit symbol power.
            return si_aware_precoder_projection(w, h_si_hat, state, mu_w / p_w), streams
        except InfeasibleProjectionError:
            streams -= 1
    return None, 0


def _measure_cov(z: np.ndarray) -> np.ndarray:
    return (z @ z.conj().T) / z.shape[1]


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
    if arch.bf_mode == "hybrid":
        tx_book = dft_codebook(arch.tx_subarray, arch.phase_bits)
        rx_book = dft_codebook(arch.rx_subarray, arch.phase_bits)
        f_tx = assemble_analog_bf(
            select_subarray_beams(draw["h_dl"], tx_book, arch.n_tx_rf, "tx"), arch, "tx"
        ).matrix
        f_rx = assemble_analog_bf(
            select_subarray_beams(draw["h_ul"], rx_book, arch.n_rx_rf, "rx"), arch, "rx"
        ).matrix
    else:
        f_tx = np.eye(arch.n_tx, dtype=complex)
        f_rx = np.eye(arch.n_rx, dtype=complex)

    ctx = dict(draw)
    ctx["h_dl_eff"] = _ro(np.sqrt(bud.dl_gain) * (draw["h_dl"] @ f_tx))
    h_ul = draw["h_ul"][:, : cfg.ul_streams]
    ctx["h_ul_eff"] = _ro(np.sqrt(bud.ul_gain) * (f_rx.conj().T @ h_ul))
    h_si_eff = _ro(np.sqrt(bud.si_gain) * effective_si_channel(draw["h_si"], f_tx, f_rx))
    # The SI channel is sounded once, at the calibration power.
    h_si_hat = _ro(
        _pilot_estimate(h_si_eff, draw["n_cal"], consts["si_cal"], bud.bs_noise_w, bud.si_gain)
    )
    ctx["h_si_eff"] = h_si_eff
    ctx["h_si_hat"] = h_si_hat
    fd = [plan for plan in plans if plan.duplex == "fd"]
    ctx["taps"] = _trial_taps(fd, h_si_hat, arch.num_taps)
    if any(plan.null_depth for plan in fd):
        _, _, vh = np.linalg.svd(h_si_hat)
        ctx["null_v"] = _ro(vh[: arch.n_tx_rf // 2].conj().T)
    ctx["noise_b"] = _ro(np.sqrt(bud.bs_noise_w) * draw["n_burst"])
    return ctx


def _tx_key(plan: _Plan) -> tuple:
    """Plan fields that fix the precoder; impairments only act after it."""
    return (plan.taps, plan.layout, plan.budget, plan.null_depth, plan.duplex)


def _power_ab(
    cfg: ScenarioConfig, consts: dict, ctx: dict, p_w: float, plans: List[_Plan]
) -> dict:
    """What the schemes share at one power: estimates, UL burst, precoders."""
    arch = cfg.arch
    bud = cfg.budget
    ul_w = p_w  # the UL UE tracks the swept DL power in these scenarios
    ul_amp = np.sqrt(ul_w / cfg.ul_streams)

    # Pilot-based estimates: the DL and UL channels are sounded at the
    # operating powers.
    dl_prior = bud.dl_gain * arch.tx_subarray
    ul_prior = bud.ul_gain * arch.rx_subarray
    h_dl_hat = _pilot_estimate(
        ctx["h_dl_eff"], ctx["n_dl"], np.sqrt(p_w / arch.n_tx_rf) * consts["dl"],
        bud.ue_noise_w, dl_prior,
    )
    h_ul_hat = _pilot_estimate(
        ctx["h_ul_eff"], ctx["n_ul"], ul_amp * consts["ul"], bud.bs_noise_w, ul_prior
    )

    sat = SaturationSpec(bud.rx_saturation_dbm)
    max_streams = min(arch.n_tx_rf, cfg.dl_ue_antennas)
    tx: Dict[tuple, Tuple[Optional[np.ndarray], np.ndarray]] = {}
    for plan in plans:
        key = _tx_key(plan)
        if key in tx:
            continue
        mu_w = 0.5 * sat.max_input_w if plan.budget == "saturation" else bud.bs_noise_w
        state = ctx["taps"][(plan.taps, plan.layout)].state if plan.duplex == "fd" else None
        w, streams = _fd_precoder(
            h_dl_hat, ctx["h_si_hat"], state, ctx.get("null_v"), plan, max_streams, mu_w, p_w
        )
        if w is not None:
            x = np.sqrt(p_w) * (w @ ctx["s_dl"][:streams])
            _ro(w)
        else:
            x = np.zeros((arch.n_tx_rf, cfg.packet_symbols), dtype=complex)
        tx[key] = (w, _ro(x))
    return {
        "p_w": p_w,
        "h_ul_hat": _ro(h_ul_hat),
        "ul_sym": _ro(ctx["h_ul_eff"] @ (ul_amp * ctx["s_ul"])),
        "tx": tx,
    }


def _eval_ab(cfg: ScenarioConfig, ctx: dict, shared: dict, plan: _Plan) -> Tuple[float, float]:
    arch = cfg.arch
    bud = cfg.budget
    imp = cfg.impairments if plan.impaired else replace(cfg.impairments, enabled=False)
    sat = SaturationSpec(bud.rx_saturation_dbm)
    p_w = shared["p_w"]
    ul_w = p_w
    h_dl_eff = ctx["h_dl_eff"]
    h_ul_eff = ctx["h_ul_eff"]
    h_ul_hat = shared["h_ul_hat"]

    w, x = shared["tx"][_tx_key(plan)]
    if w is not None:
        x_tx = _tx_impair(x, imp)
        dist_ue = h_dl_eff @ (x_tx - x)
        dl = dl_rate(h_dl_eff, w, p_w, bud.ue_noise_w, _measure_cov(dist_ue))
    else:
        x_tx = x
        dl = 0.0

    if plan.duplex == "hd":
        combiner = mmse_combiner(
            np.sqrt(ul_w / cfg.ul_streams) * h_ul_hat,
            bud.bs_noise_w * np.eye(arch.n_rx_rf, dtype=complex),
        )
        ul = ul_rate(h_ul_eff, combiner, ul_w, bud.bs_noise_w * np.eye(arch.n_rx_rf))
        return 0.5 * dl, 0.5 * ul

    taps = ctx["taps"][(plan.taps, plan.layout)]
    ul_sym = shared["ul_sym"]
    noise_b = ctx["noise_b"]
    r_si = ctx["h_si_eff"] @ x_tx - taps.matrix @ x
    r = r_si + ul_sym + noise_b
    saturated = check_saturation(np.mean(np.abs(r) ** 2, axis=1), sat)
    if plan.digital and w is not None:
        coeffs = _digital_cancel(x, r, taps.resid_lin)
        z_si = apply_digital_canceller(coeffs, x, r) - ul_sym - noise_b
    else:
        z_si = r_si
    c_resid = _measure_cov(z_si)

    alive = ~saturated
    ul = 0.0
    if np.any(alive):
        noise_cov = bud.bs_noise_w * np.eye(int(alive.sum()), dtype=complex)
        c_sub = c_resid[np.ix_(alive, alive)]
        combiner = mmse_combiner(
            np.sqrt(ul_w / cfg.ul_streams) * h_ul_hat[alive], noise_cov + c_sub
        )
        ul = ul_rate(h_ul_eff[alive], combiner, ul_w, noise_cov + c_sub)
        # Sanity bound: residual SI can only cost rate with this combiner.
        ul_iso = ul_rate(h_ul_eff[alive], combiner, ul_w, noise_cov)
        if ul > ul_iso * (1.0 + 1e-9) + 1e-12:
            raise RuntimeError("full-duplex UL rate exceeded its interference-free bound")
    return dl, ul


# ---------------------------------------------------------------------------
# scenario c: multi-user cell, reciprocal aging channels, DL rate metric


def _draw_c(cfg: ScenarioConfig, rng: np.random.Generator) -> dict:
    arch = cfg.arch
    rho = cfg.aging.rho
    slots = [gen_rayleigh(arch.n_rx, cfg.num_ue, rng)]
    for _ in range(5):
        slots.append(evolve_gauss_markov(slots[-1], rho, rng))
    lp = cfg.pilots.num_pilots
    return {
        "g_slots": slots,
        "h_si": gen_rician(RicianParams(cfg.kappa_si_db, arch.n_rx, arch.n_tx), rng),
        "n_cal": complex_gaussian(rng, arch.n_rx_rf, lp),
        "n_pilot": [complex_gaussian(rng, arch.n_rx_rf, lp) for _ in range(cfg.num_ue)],
        "s_dl": complex_gaussian(rng, cfg.num_ue, cfg.packet_symbols),
        "n_burst": complex_gaussian(rng, arch.n_rx_rf, cfg.packet_symbols),
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
    """Per-trial context: SI estimate, taps, and every power-free precoder."""
    arch = cfg.arch
    bud = cfg.budget
    u = cfg.num_ue
    g = draw["g_slots"]
    dl_amp = np.sqrt(bud.dl_gain)
    ctx = dict(draw)
    fd = [plan for plan in plans if plan.duplex == "fd" and plan.csi != "perfect"]
    if fd:
        # Calibrate taps once at the fixed calibration power; the probe
        # precoder measures the steady-state residual from stale truth.
        h_si_eff = _ro(np.sqrt(bud.si_gain) * draw["h_si"])
        h_si_hat = _ro(
            _pilot_estimate(h_si_eff, draw["n_cal"], consts["si_cal"], bud.bs_noise_w, bud.si_gain)
        )
        ctx["h_si_eff"] = h_si_eff
        ctx["taps"] = _trial_taps(fd, h_si_hat, arch.num_taps)
        ctx["probe"] = {}
        for plan in fd:
            if plan.csi in ctx["probe"]:
                continue
            if plan.csi == "sequential":
                stale = np.column_stack([g[4 - k][:, k] for k in range(u)])
            else:
                stale = g[4]
            ctx["probe"][plan.csi] = _zf_or_none(dl_amp * stale.T)
        ctx["pil_rx"] = _ro(np.sqrt(bud.ul_gain) * (g[5] @ consts["ul_packet"]))
        ctx["noise_b"] = _ro(np.sqrt(bud.bs_noise_w) * draw["n_burst"])
    if any(plan.duplex == "hd" for plan in plans):
        # Train in the reserved slice of the previous slot, apply now.
        pil = consts["ul_hd"]
        y = np.sqrt(bud.ul_gain) * (g[4] @ pil)
        y = y + np.sqrt(bud.bs_noise_w) * draw["n_pilot"][0][:, : pil.shape[1]]
        g_hat = mmse_estimate(y, pil, bud.bs_noise_w, bud.ul_gain).h_hat
        ctx["hd_w"] = _zf_or_none(dl_amp * g_hat.T)
    if any(plan.csi == "perfect" for plan in plans):
        ctx["ideal_w"] = _zf_or_none(dl_amp * g[5].T)
    return ctx


def _c_slot(
    cfg: ScenarioConfig,
    ctx: dict,
    plan: _Plan,
    taps: _Taps,
    imp: TxImpairmentConfig,
    w: np.ndarray,
    p_w: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """One concurrent DL-data / UL-pilot packet at the BS receive chains.

    Returns (per-chain residual power after cancellation, saturation flags).
    """
    bud = cfg.budget
    x = np.sqrt(p_w) * (w @ ctx["s_dl"])
    x_tx = _tx_impair(x, imp)
    r_si = ctx["h_si_eff"] @ x_tx - taps.matrix @ x
    r = r_si + ctx["pil_rx"] + ctx["noise_b"]
    saturated = check_saturation(
        np.mean(np.abs(r) ** 2, axis=1), SaturationSpec(bud.rx_saturation_dbm)
    )
    if plan.digital:
        coeffs = _digital_cancel(x, r, taps.resid_lin)
        z_si = apply_digital_canceller(coeffs, x, r) - ctx["pil_rx"] - ctx["noise_b"]
    else:
        z_si = r_si
    return np.mean(np.abs(z_si) ** 2, axis=1), saturated


def _eval_c(
    cfg: ScenarioConfig, consts: dict, ctx: dict, p_w: float, plan: _Plan
) -> Tuple[float, float]:
    bud = cfg.budget
    u = cfg.num_ue
    g = ctx["g_slots"]
    dl_amp = np.sqrt(bud.dl_gain)
    ul_amp = np.sqrt(bud.ul_gain)

    if plan.csi == "perfect":
        w = ctx["ideal_w"]
        if w is None:
            return 0.0, 0.0
        return _c_dl_rate(cfg, g[5], w, p_w, np.zeros(u)), 0.0

    if plan.duplex == "hd":
        w = ctx["hd_w"]
        if w is None:
            return 0.0, 0.0
        x = np.sqrt(p_w) * (w @ ctx["s_dl"])
        dist = _tx_impair(x, cfg.impairments) - x
        dist_ue = np.mean(np.abs(dl_amp * (g[5].T @ dist)) ** 2, axis=1)
        return cfg.dl_data_fraction * _c_dl_rate(cfg, g[5], w, p_w, dist_ue), 0.0

    # Full duplex: measure the steady-state residual with the stale-truth
    # probe precoder, then estimate under that interference level.
    w_probe = ctx["probe"][plan.csi]
    if w_probe is None:
        return 0.0, 0.0
    imp = cfg.impairments if plan.impaired else replace(cfg.impairments, enabled=False)
    taps = ctx["taps"][(plan.taps, plan.layout)]
    resid_power, saturated = _c_slot(cfg, ctx, plan, taps, imp, w_probe, p_w)
    noise_eff = bud.bs_noise_w + float(np.mean(resid_power))

    if plan.csi == "sequential":
        # One UE sounds per slot with the full pilot budget; the newest
        # estimate of UE k is k + 1 slots old by the time it is applied.
        pil = consts["ul_single"]
        cols = []
        for k in range(u):
            y = ul_amp * (g[4 - k][:, k : k + 1] @ pil)
            y = y + np.sqrt(noise_eff) * ctx["n_pilot"][k]
            cols.append(mmse_estimate(y, pil, noise_eff, bud.ul_gain).h_hat[:, 0])
        g_hat = np.column_stack(cols)
    else:
        pil = consts["ul_joint"]
        y = ul_amp * (g[4] @ pil) + np.sqrt(noise_eff) * ctx["n_pilot"][0]
        g_hat = mmse_estimate(y, pil, noise_eff, bud.ul_gain).h_hat
    g_hat = g_hat / ul_amp * dl_amp  # reciprocity: swap the direction gain
    g_hat[saturated, :] = 0.0  # clipped chains yield no usable estimate

    try:
        w = zf_precoder(g_hat.T)
    except SingularChannelError:
        return 0.0, 0.0
    # The scored slot only needs the TX distortion the UEs see; its
    # receive side was already measured with the probe.
    x = np.sqrt(p_w) * (w @ ctx["s_dl"])
    dist = _tx_impair(x, imp) - x
    dist_ue = np.mean(np.abs(dl_amp * (g[5].T @ dist)) ** 2, axis=1)
    return _c_dl_rate(cfg, g[5], w, p_w, dist_ue), 0.0


def _c_dl_rate(
    cfg: ScenarioConfig,
    g_now: np.ndarray,
    w: np.ndarray,
    p_w: float,
    dist_ue: np.ndarray,
) -> float:
    """Sum of per-UE log rates; UEs cannot cooperate, so no joint decoding."""
    bud = cfg.budget
    rows = np.sqrt(bud.dl_gain) * g_now.T  # one UE channel row per line
    gains = np.abs(rows @ w) ** 2 * p_w
    total = 0.0
    for k in range(cfg.num_ue):
        sig = gains[k, k]
        intf = float(np.sum(gains[k, :]) - sig)
        total += np.log2(1.0 + sig / (intf + dist_ue[k] + bud.ue_noise_w))
    return float(total)


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
        "n_cal": complex_gaussian(rng, arch.n_rx_rf, cfg.pilots.num_pilots),
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


def _d_geometry(cfg: ScenarioConfig, theta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Analog beams and matched digital weight for a pointing angle."""
    arch = cfg.arch
    book = dft_codebook(arch.tx_subarray, arch.phase_bits)
    idx = beam_select_doa(theta, book)
    f_tx = assemble_analog_bf([idx] * arch.n_tx_rf, cfg.arch, "tx").matrix
    a_full = np.exp(1j * np.pi * np.arange(arch.n_tx) * np.sin(theta))
    w = (a_full @ f_tx).conj()[:, None]
    norm = np.linalg.norm(w)
    if norm > 0:
        w = w / norm
    return f_tx, w


def _d_dl(cfg: ScenarioConfig, draw: dict, f_tx, w, p_w, impaired) -> float:
    bud = cfg.budget
    h_eff = np.sqrt(bud.dl_gain) * (draw["h_dl"] @ f_tx)
    dist_pow = 0.0
    if impaired:
        x = np.sqrt(p_w) * (w @ draw["s_dl"])
        dist = _tx_impair(x, cfg.impairments) - x
        dist_pow = float(np.mean(np.abs(h_eff @ dist) ** 2))
    sig = p_w * float(np.abs(h_eff @ w)[0, 0] ** 2)
    return float(np.log2(1.0 + sig / (dist_pow + bud.ue_noise_w)))


def _eval_d(
    cfg: ScenarioConfig, consts: dict, draw: dict, power_dbm: float, plan: _Plan
) -> Tuple[float, float]:
    arch = cfg.arch
    bud = cfg.budget
    p_w = dbm_to_watt(power_dbm)
    pil_w = dbm_to_watt(bud.ul_power_dbm)
    angles = dft_beam_angles(arch.tx_subarray)
    sweep = np.vstack([steering_vector(arch.n_rx_rf, a) for a in angles])
    h_ul = np.sqrt(bud.ul_gain) * draw["h_ul"]

    if plan.csi == "perfect":
        f_tx, _ = _d_geometry(cfg, draw["theta"])
        h_eff = np.sqrt(bud.dl_gain) * (draw["h_dl"] @ f_tx)
        w = h_eff.conj().T / np.linalg.norm(h_eff)
        return _d_dl(cfg, draw, f_tx, w, p_w, impaired=False), 0.0

    t = cfg.packet_symbols
    if plan.duplex == "hd":
        pil_len = cfg.hd_pilot_len
        y = h_ul * np.sqrt(pil_w) + np.sqrt(bud.bs_noise_w) * draw["n_slot"][:, :pil_len]
        theta_hat = doa_estimate(y, sweep, angles)
        theta_hat = _interferometric_doa(y, np.arange(arch.n_rx_rf), theta_hat)
        f_tx, w = _d_geometry(cfg, theta_hat)
        return cfg.dl_data_fraction * _d_dl(cfg, draw, f_tx, w, p_w, impaired=True), 0.0

    # Full duplex: the pointing angle in use came from last slot's training
    # under the same interference conditions; one warm-up pass stands in
    # for that history, the second pass is the slot that gets scored.
    theta_ref = draw["theta"]
    sat_spec = SaturationSpec(bud.rx_saturation_dbm)
    mu_w = 0.5 * sat_spec.max_input_w if plan.budget == "saturation" else bud.bs_noise_w
    f_tx = w = None
    for final in (False, True):
        f_tx, w = _d_geometry(cfg, theta_ref)
        h_si_eff = np.sqrt(bud.si_gain) * effective_si_channel(draw["h_si"], f_tx, np.eye(arch.n_rx, dtype=complex))
        h_si_hat = _pilot_estimate(
            h_si_eff, draw["n_cal"], consts["si_cal"], bud.bs_noise_w, bud.si_gain
        )
        state = _build_taps(plan, h_si_hat, arch.num_taps)
        try:
            w = si_aware_precoder_projection(w, h_si_hat, state, mu_w / p_w)
        except InfeasibleProjectionError:
            return 0.0, 0.0
        if final:
            break
        x = np.sqrt(p_w) * (w @ draw["s_dl"])
        x_tx = _tx_impair(x, cfg.impairments if plan.impaired else replace(cfg.impairments, enabled=False))
        r = h_si_eff @ x_tx - state.matrix() @ x
        r = r + h_ul @ (np.sqrt(pil_w) * np.ones((1, t)))
        r = r + np.sqrt(bud.bs_noise_w) * draw["n_slot"]
        saturated = check_saturation(np.mean(np.abs(r) ** 2, axis=1), sat_spec)
        if plan.digital:
            coeffs = _digital_cancel(x, r, h_si_hat - state.matrix())
            z = apply_digital_canceller(coeffs, x, r)
        else:
            z = r
        alive = ~saturated
        if np.any(alive):
            rows = np.flatnonzero(alive)
            coarse = doa_estimate(z[alive], sweep[:, alive], angles)
            theta_ref = _interferometric_doa(z, rows, coarse)
        else:
            theta_ref = float(angles[0])  # training slot lost to clipping
    return _d_dl(cfg, draw, f_tx, w, p_w, impaired=plan.impaired), 0.0


# ---------------------------------------------------------------------------
# drivers


def _draw_trial(cfg: ScenarioConfig, rng: np.random.Generator) -> dict:
    if cfg.scenario in ("a", "b"):
        return _draw_ab(cfg, rng)
    if cfg.scenario == "c":
        return _draw_c(cfg, rng)
    return _draw_d(cfg, rng)


def _run_constants(cfg: ScenarioConfig) -> Dict[str, np.ndarray]:
    """Pilot matrices fixed by the config alone, built once per run.

    Powers the config fixes are folded in.  The DL and UL sounding pilots
    of scenarios a and b follow the swept power, so those stay unit
    amplitude and are scaled per power point.
    """
    arch = cfg.arch
    lp = cfg.pilots.num_pilots
    cal_w = dbm_to_watt(cfg.pilots.power_dbm)
    consts = {"si_cal": np.sqrt(cal_w / arch.n_tx_rf) * orthogonal_pilots(arch.n_tx_rf, lp)}
    if cfg.scenario in ("a", "b"):
        consts["dl"] = orthogonal_pilots(arch.n_tx_rf, lp)
        consts["ul"] = orthogonal_pilots(cfg.ul_streams, lp)
    elif cfg.scenario == "c":
        amp = np.sqrt(dbm_to_watt(cfg.budget.ul_power_dbm))
        consts["ul_packet"] = amp * orthogonal_pilots(cfg.num_ue, cfg.packet_symbols)
        consts["ul_joint"] = amp * orthogonal_pilots(cfg.num_ue, lp)
        consts["ul_single"] = amp * orthogonal_pilots(1, lp)
        consts["ul_hd"] = amp * orthogonal_pilots(cfg.num_ue, cfg.hd_pilot_len)
    return {name: _ro(a) for name, a in consts.items()}


def _eval_draw(
    cfg: ScenarioConfig,
    consts: dict,
    draw: dict,
    powers: Sequence[float],
    schemes: Sequence[str],
) -> List[List[Tuple[float, float]]]:
    """(DL, UL) rates per power and scheme for one trial's draw.

    Builds the trial context once; then, per power, computes what the
    schemes share and scores each scheme.
    """
    plans = [_PLANS[cfg.scenario][s] for s in schemes]
    if cfg.scenario in ("a", "b"):
        ctx = _prepare_ab(cfg, consts, draw, plans)
    elif cfg.scenario == "c":
        ctx = _prepare_c(cfg, consts, draw, plans)
    else:
        ctx = draw
    out = []
    for power_dbm in powers:
        p_w = dbm_to_watt(power_dbm)
        if cfg.scenario in ("a", "b"):
            shared = _power_ab(cfg, consts, ctx, p_w, plans)
            out.append([_eval_ab(cfg, ctx, shared, plan) for plan in plans])
        elif cfg.scenario == "c":
            out.append([_eval_c(cfg, consts, ctx, p_w, plan) for plan in plans])
        else:
            out.append([_eval_d(cfg, consts, ctx, power_dbm, plan) for plan in plans])
    return out


def run_trial(
    cfg: ScenarioConfig, power_dbm: float, scheme: str, rng: np.random.Generator
) -> Tuple[float, float]:
    """Single Monte Carlo trial; returns the (DL, UL) rate pair in bps/Hz."""
    if scheme not in allowed_schemes(cfg.scenario):
        raise ValueError(f"scheme {scheme!r} not defined for scenario {cfg.scenario!r}")
    draw = _draw_trial(cfg, rng)
    return _eval_draw(cfg, _run_constants(cfg), draw, (power_dbm,), (scheme,))[0][0]


def _trial_rates(cfg: ScenarioConfig, consts: dict, trial: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(trial,)))
    draw = _draw_trial(cfg, rng)
    pairs = _eval_draw(cfg, consts, draw, cfg.power_sweep_dbm, cfg.schemes)
    out = np.array([[dl + ul for dl, ul in row] for row in pairs])
    order = np.argsort(cfg.power_sweep_dbm, kind="stable")
    for isch, scheme in enumerate(cfg.schemes):
        plan = _PLANS[cfg.scenario][scheme]
        if plan.csi == "perfect" and not plan.impaired:
            if np.any(np.diff(out[order, isch]) < -1e-9):
                raise RuntimeError(
                    f"{scheme} rate decreased with power on trial {trial}"
                )
    return out


def thread_count() -> int:
    """Worker threads for the trial loop: FDMIMO_THREADS, default 1.

    Raises ValueError unless the variable holds a positive integer.
    """
    raw = os.environ.get("FDMIMO_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"FDMIMO_THREADS must be a positive integer, got {raw!r}")
    return threads


def run_scenario(cfg: ScenarioConfig) -> List[CurvePoint]:
    """Sweep power and schemes over `cfg.trials` Monte Carlo trials.

    Work is staged by what it depends on.  Per run: the pilot matrices,
    which the config alone fixes.  Per trial: the channel draw and
    everything that does not depend on the transmit power, such as the SI
    calibration estimate, the canceller taps and, in scenario c, the
    power-free precoders.  Per power: what the schemes share, such as the
    channel estimates and precoded bursts in scenarios a and b; then each
    scheme is scored.

    Trials are independent and may run on up to FDMIMO_THREADS workers;
    results are reduced in trial order so the output is identical for any
    thread count.  With trials=1 each point equals `run_trial` seeded with
    SeedSequence(entropy=seed, spawn_key=(0,)).
    """
    threads = thread_count()
    consts = _run_constants(cfg)
    rates = np.zeros((cfg.trials, len(cfg.power_sweep_dbm), len(cfg.schemes)))
    if threads == 1:
        for t in range(cfg.trials):
            rates[t] = _trial_rates(cfg, consts, t)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trial_rates = pool.map(lambda t: _trial_rates(cfg, consts, t), range(cfg.trials))
            for t, out in enumerate(trial_rates):
                rates[t] = out
    points = []
    for isch, scheme in enumerate(cfg.schemes):
        for ip, p in enumerate(cfg.power_sweep_dbm):
            vals = rates[:, ip, isch]
            err = float(vals.std(ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
            points.append(CurvePoint(float(p), scheme, float(vals.mean()), err, cfg.trials))
    points.sort(key=lambda c: (c.scheme, c.power_dbm))
    return points
