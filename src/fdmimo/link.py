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

  per run    pilot matrices, fixed by the config and, for the DL and UL
             sounding of a and b, scaled to each scored power; each is
             checked once.  Scenario d's beam grid: the codeword angles,
             the DOA sweep over them, the codebook and each codeword's
             analog beamformer (`_run_constants`).  Scenario c's
             slot-to-slot correlation rho = J0(2 pi fD Ts) is computed on
             first use and kept on its `AgingParams`
  per trial  the draw plus everything independent of the transmit power:
             beams and effective channels, the SI calibration estimate,
             one canceller per (taps, layout), and in scenario c the
             probe, half-duplex and ideal-CSI precoders with their
             unit-power bursts and UE gains, and each full-duplex
             scheme's probe slot, received once at unit amplitude with one
             canceller fit (`_prepare_ab`, `_prepare_c`, `_stage_probe`).
             In d, the ideal-CSI pointing, the HD angle estimate (trained
             at the fixed UL power) with its pointing and burst, and the
             UL pilot and noise of the full-duplex slot (`_prepare_d`); a
             memo keyed by codeword holds each beam's DL and SI channels,
             SI estimate and cancellers for every pass and power
             (`_d_beam`).  In a and b, one rate pass scores every (power,
             scheme) of the trial as one stack (`_score_ab`)
  per power  in a and b, the channel estimates, one eigen precoder per
             stream count shared by every scheme, and one precoded burst
             per distinct precoder; schemes sharing a burst are received
             together, down to their covariances and UL combiners
             (`_receive_ab`).  In c, the fixed precoders' gains and bursts
             are scaled by the power, and each full-duplex scheme scales
             its staged probe slot to the power for the saturation check
             and residual SI (`_probe_receive`), then estimates and
             zero-forces (`_score_c`).  In d, each full-duplex scheme
             projects its precoder, receives the warm-up slot, refines
             the angle and points the scored slot (`_d_fd_rate`).

One table, `_DRIVERS`, gives each scenario its draw, prepare, per-power
stage and, for a and b, the rate pass that finishes the trial.

The full-duplex slots of a, b and d are received through one chain,
`_fd_receive`: analog taps, saturation check, then the digital canceller.
Scenario c's probe slot, whose burst only scales with the power, takes the
same stages split at the amplitude (`_stage_probe`, `_probe_receive`).
Both run the digital canceller through `_digital_stage`.

Arrays shared across schemes or powers are read-only, so an in-place
write by one scheme fails instead of leaking into the next.  Arrays of
packet length built at a power point do not outlive it.

Rates are spectral efficiencies in bps/Hz.  A trial returns a (DL, UL)
pair; scenarios c and d carry data in the DL only and report UL as zero.
Half-duplex baselines return the two half-slot (or 90% DL slot) rates
already weighted, so DL + UL is always the headline sum rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    _regressors,
    apply_digital_canceller,
    check_saturation,
    effective_si_channel,
    fit_digital_canceller,
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
from fdmimo.estimation import Pilots, mmse_estimate, orthogonal_pilots, doa_estimate, PilotConfig
from fdmimo.impairments import TxImpairmentConfig, apply_tx_chain, check_dbm, dbm_to_watt


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
        for name in ("bs_noise_dbm", "ue_noise_dbm", "rx_saturation_dbm", "ul_power_dbm"):
            check_dbm(name, getattr(self, name))
        for name in ("bs_noise_dbm", "ue_noise_dbm"):
            # kTB at 290 K in 1 Hz; a lower floor leaves the residual SI
            # covariance numerically indefinite instead of adding noise.
            if getattr(self, name) < -174.0:
                raise ValueError(f"{name} must be at least -174 dBm (thermal noise in 1 Hz)")

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
            taps="full", layout="greedy", digital=False, impaired=False, budget="noise",
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


# Config fields each scenario never reads, so a config may not set them.
# `arch.bf_mode` is read but fixed: a and c are fully digital arrays, b and
# d hybrid.  c and d train over the whole packet, not `pilots.num_pilots`.
UNREAD_FIELDS: Dict[str, Tuple[str, ...]] = {
    "a": ("num_ue", "num_paths", "kappa_ue_db", "dl_data_fraction", "hd_pilot_fraction", "aging",
          "budget.ul_power_dbm", "arch.phase_bits", "arch.bf_mode"),
    "b": ("num_ue", "kappa_ue_db", "dl_data_fraction", "hd_pilot_fraction", "aging",
          "budget.ul_power_dbm", "arch.bf_mode"),
    "c": ("num_paths", "dl_ue_antennas", "ul_ue_antennas", "ul_streams", "kappa_ue_db",
          "arch.phase_bits", "arch.bf_mode", "pilots.num_pilots"),
    "d": ("num_ue", "num_paths", "dl_ue_antennas", "ul_ue_antennas", "ul_streams", "aging",
          "arch.bf_mode", "pilots.num_pilots"),
}


def allowed_schemes(scenario: str) -> Tuple[str, ...]:
    """Scheme labels defined for a scenario, in canonical order."""
    if scenario not in _PLANS:
        raise ValueError(f"unknown scenario {scenario!r}")
    return tuple(_PLANS[scenario])


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation campaign.  A scenario
    ignores the fields that `UNREAD_FIELDS` names for it."""

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
        for i, p in enumerate(self.power_sweep_dbm):
            check_dbm(f"power_sweep_dbm[{i}]", p)
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
        if self.scenario == "c":
            if self.aging is None:
                raise ValueError("scenario 'c' requires aging parameters")
            if self.num_ue > self.arch.n_tx_rf:
                raise ValueError("cannot zero-force more UEs than transmit chains")
            # The UL channel, transposed, is the DL channel: one array serves both.
            if self.arch.n_tx != self.arch.n_rx:
                raise ValueError("scenario 'c' uses reciprocal channels, so n_tx must equal n_rx")
        if self.scenario in ("a", "b"):
            if self.ul_streams > self.ul_ue_antennas:
                raise ValueError("ul_streams cannot exceed ul_ue_antennas")
            if self.pilots.num_pilots < max(self.arch.n_tx_rf, self.ul_streams):
                raise ValueError("pilots.num_pilots must cover every transmit chain and UL stream")
        if self.packet_symbols < 3 * self.arch.n_tx_rf:
            raise ValueError("packet_symbols must cover the digital canceller basis")
        if not 0.0 < self.dl_data_fraction <= 1.0:
            raise ValueError("dl_data_fraction must lie in (0, 1]")
        if not 0.0 < self.hd_pilot_fraction <= 1.0:
            raise ValueError("hd_pilot_fraction must lie in (0, 1]")
        # The half-duplex baselines of c and d train one pilot symbol per UE.
        need = {"c": self.num_ue, "d": 1}.get(self.scenario, 0)
        if self.hd_pilot_len < need:
            raise ValueError(f"hd_pilot_fraction leaves fewer than {need} HD pilots, one per UE")

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
            arch=ArchitectureConfig(4, 4, 4, 4, num_taps=12, bf_mode="digital"),
            budget=LinkBudget(),
            pilots=PilotConfig(num_pilots=40, power_dbm=10.0),
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
            pilots=PilotConfig(num_pilots=40, power_dbm=10.0),
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
            arch=ArchitectureConfig(8, 8, 8, 8, num_taps=32, bf_mode="digital"),
            # Isolation keeps the strongest per-chain residual a few dB
            # under the front-end limit at the top of the power sweep.
            budget=LinkBudget(si_isolation_db=65.0),
            aging=AgingParams(doppler_hz=50.0, slot_s=1e-3),
            power_sweep_dbm=tuple(float(p) for p in range(0, 41, 5)),
            trials=200,
            seed=1,
            schemes=("proposed", "benchmark", "ideal-csi", "hd"),
            num_ue=4,
            packet_symbols=400,
        )
    if code == "d":
        return ScenarioConfig(
            scenario="d",
            arch=ArchitectureConfig(64, 2, 2, 2, phase_bits=3, num_taps=2, bf_mode="hybrid"),
            budget=LinkBudget(),
            power_sweep_dbm=tuple(float(p) for p in range(0, 46, 5)),
            trials=200,
            seed=1,
            schemes=("proposed", "benchmark", "ideal-csi", "hd"),
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


def _tx_impair(x: np.ndarray, cfg: TxImpairmentConfig) -> np.ndarray:
    """Per-chain impairments at the fixed drive level.

    Each chain is scaled to `cfg.drive_dbm`, distorted, and scaled back,
    so the distortion-to-signal ratio is set by the hardware operating
    point rather than by the commanded output power.
    """
    if not cfg.enabled:
        return x
    p = np.abs(x)
    p **= 2
    p = np.mean(p, axis=1, keepdims=True)
    scale = np.ones_like(p)
    live = p[:, 0] > 0
    scale[live] = np.sqrt(dbm_to_watt(cfg.drive_dbm) / p[live])
    y = apply_tx_chain(x * scale, cfg)
    y /= scale
    return y


def _fd_receive(
    h_si: np.ndarray, c: np.ndarray, resid_lin: np.ndarray, x: np.ndarray, x_tx: np.ndarray,
    ul: np.ndarray, noise: np.ndarray, digital: bool, sat: SaturationSpec,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One full-duplex slot of scenario a, b or d at the BS receive chains.

    The radiated burst `x_tx` leaks through `h_si`, the analog taps `c`
    subtract their copy of the clean burst `x`, UL signal and noise add.
    With `digital` the canceller, seeded with `resid_lin`, is fit on the
    slot and applied.  Returns the SI left after the last stage (the
    analog residual h_si x_tx - c x without `digital`), the samples after
    the last stage, and the flags of saturated chains.

    A stack of radiated versions of one burst, `x_tx` of shape (members,
    chains, samples), is received in one pass: all members' rows share
    the regressors of `x`, built once for one fit and one apply that
    serve them all, with `resid_lin` given once per member (stacked rows).
    """
    r_si = h_si @ x_tx - c @ x
    r = r_si + ul + noise
    saturated = check_saturation(np.mean(np.abs(r) ** 2, axis=-1), sat)
    if digital:
        del r_si  # not returned; freed before the fit's temporaries
        z = _digital_stage(x, r.reshape(-1, r.shape[-1]), resid_lin).reshape(r.shape)
        return z - ul - noise, z, saturated
    return r_si, r, saturated


def _digital_stage(x: np.ndarray, rows: np.ndarray, resid_lin: np.ndarray) -> np.ndarray:
    """The digital canceller on receive `rows` of the clean burst `x`: fit,
    seeded with `resid_lin` (one row per receive row), then applied.

    The regressors of `x` are built once for both steps.  The fit is the
    checked one, or the minimum-norm one when `x` cannot identify every
    coefficient.  Returns the rows after cancellation.
    """
    phi = _regressors(x)
    try:
        coeffs = train_digital_canceller(x, rows, resid_lin, phi)
    except RegressorRankError:
        # Fewer streams than chains: the chain signals are dependent,
        # and the minimum-norm fit still cancels what was radiated.
        coeffs = fit_digital_canceller(x, rows, resid_lin, phi)
    return apply_digital_canceller(coeffs, x, rows, phi)


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
    cfg: ScenarioConfig, ctx: dict, eig: Callable[[int], np.ndarray], plan: _Plan, p_w: float
) -> Tuple[Optional[np.ndarray], int]:
    """Eigen precoder plus the plan's self-interference spatial handling.

    `eig(streams)` is the read-only eigen precoder of the DL estimate.
    `ctx["null_v"]` spans the strong half of the SI channel row space, used
    by plans with a fixed null depth.  Returns (precoder, streams); the
    precoder is None when no stream count admits a feasible projection.
    """
    bud = cfg.budget
    sat = SaturationSpec(bud.rx_saturation_dbm)
    mu_w = 0.5 * sat.max_input_w if plan.budget == "saturation" else bud.bs_noise_w
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
        state = ctx["taps"][(plan.taps, plan.layout)].state
        try:
            # The budget is on radiated residual power, the projection
            # helper compares against ||R W||_F^2 with unit symbol power.
            return si_aware_precoder_projection(w, ctx["h_si_hat"], state, mu_w / p_w), streams
        except InfeasibleProjectionError:
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
    if arch.bf_mode == "hybrid":
        tx_book = dft_codebook(arch.tx_subarray, arch.phase_bits)
        rx_book = dft_codebook(arch.rx_subarray, arch.phase_bits)
        f_tx = assemble_analog_bf(
            select_subarray_beams(draw["h_dl"], tx_book, arch.n_tx_rf, "tx"), arch, "tx"
        )
        f_rx = assemble_analog_bf(
            select_subarray_beams(draw["h_ul"], rx_book, arch.n_rx_rf, "rx"), arch, "rx"
        )
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
    """Every plan's slot at one power, up to the rates.

    The channels are sounded at the operating power and the eigen
    precoders are computed once per stream count.  Schemes with the same
    precoder and digital stage share a burst and are received together:
    one `_fd_receive` per burst, whose members' samples shrink at once to
    covariances and saturation flags, then one `mmse_combiner` per number
    of surviving chains.  Returns one item per plan for `_score_ab`:
    (power, precoder, TX distortion at the DL UE, surviving chains or None
    for a UL outage, their UL channel, combiner, noise + residual SI, and
    noise alone).
    """
    arch = cfg.arch
    bud = cfg.budget
    sat = SaturationSpec(bud.rx_saturation_dbm)
    p_w = dbm_to_watt(power_dbm)
    ul_amp = np.sqrt(p_w / cfg.ul_streams)  # the UL UE tracks the swept DL power
    h_dl_hat = _pilot_estimate(
        ctx["h_dl_eff"], ctx["n_dl"], consts["dl", power_dbm], bud.ue_noise_w,
        bud.dl_gain * arch.tx_subarray,
    )
    h_ul_hat = _pilot_estimate(
        ctx["h_ul_eff"], ctx["n_ul"], consts["ul", power_dbm], bud.bs_noise_w,
        bud.ul_gain * arch.rx_subarray,
    )
    ul_sym = _ro(ctx["h_ul_eff"] @ (ul_amp * ctx["s_ul"]))
    # One decomposition per stream count, shared by every burst.
    eig = lru_cache(lambda streams: _ro(eigen_precoder(h_dl_hat, streams)))
    n = len(plans)
    ws: list = [None] * n
    dist_cov: list = [None] * n  # TX distortion at the DL UE
    si_cov = [np.zeros((arch.n_rx_rf,) * 2, dtype=complex)] * n  # residual SI at the BS
    alive = [np.ones(arch.n_rx_rf, dtype=bool)] * n  # chains that escaped saturation
    # BLAS takes vector kernels for a lone receive row, which round unlike
    # a stack of rows; a one-chain receiver receives each scheme on its own.
    solo = arch.n_rx_rf == 1
    bursts = _groups((_tx_key(p), p.digital, solo and i) for i, p in enumerate(plans))
    for (_, digital, _), members in bursts.items():
        lead = plans[members[0]]
        w, streams = _fd_precoder(cfg, ctx, eig, lead, p_w)
        if w is None:
            x = _ro(np.zeros((arch.n_tx_rf, cfg.packet_symbols), dtype=complex))
        else:
            x = _ro(np.sqrt(p_w) * (w @ ctx["s_dl"][:streams]))
        for i in members:
            ws[i] = w
        impair = [plans[i].impaired and w is not None for i in members]
        x_tx = np.stack([_tx_impair(x, cfg.impairments) if on else x for on in impair])
        if w is not None:
            for i, cov in zip(members, _measure_cov(ctx["h_dl_eff"] @ (x_tx - x))):
                dist_cov[i] = cov
        if lead.duplex == "fd":
            taps = ctx["taps"][(lead.taps, lead.layout)]
            z_si, _, saturated = _fd_receive(
                ctx["h_si_eff"], taps.matrix, np.tile(taps.resid_lin, (len(members), 1)), x,
                x_tx, ul_sym, ctx["noise_b"], digital and w is not None, sat,
            )
            for i, cov, flags in zip(members, _measure_cov(z_si), saturated):
                si_cov[i], alive[i] = cov, ~flags

    # Surviving chains see thermal noise plus residual SI; the bound, noise alone.
    sizes = [int(m.sum()) for m in alive]
    thermal = {k: bud.bs_noise_w * np.eye(k, dtype=complex) for k in set(sizes)}
    cov = [thermal[k] + c[m][:, m] for k, c, m in zip(sizes, si_cov, alive)]
    # Fewer surviving chains than UL streams cannot separate the streams:
    # the UL is an outage, as when every chain saturates.
    chains = [k if k >= cfg.ul_streams else None for k in sizes]
    combiners = _stacked(mmse_combiner, chains, [ul_amp * h_ul_hat[m] for m in alive], cov)
    return [
        (p_w, w, d, k, ctx["h_ul_eff"][m], u, c, thermal[n])
        for w, d, k, n, m, u, c in zip(ws, dist_cov, chains, sizes, alive, combiners, cov)
    ]


def _score_ab(
    cfg: ScenarioConfig, ctx: dict, received: List[List[tuple]], plans: List[_Plan]
) -> List[List[Tuple[float, float]]]:
    """(DL, UL) rates of every plan, one row per power of `received`.

    Every (power, plan) item of the trial is scored in one stack: one
    `dl_rate` and one `ul_rate` (which also holds the interference-free
    bounds) per array shape, each item at its own power.
    """
    bud = cfg.budget
    p_w, ws, dist_cov, chains, h_ul, combiners, cov, thermal = zip(
        *(item for row in received for item in row)
    )
    dl = _stacked(
        lambda w, c, p: dl_rate(ctx["h_dl_eff"], w, p, bud.ue_noise_w, c),
        [None if w is None else w.shape for w in ws], ws, dist_cov, p_w,
    )
    ul = _stacked(
        lambda h, u, c, t, p: ul_rate(h[:, None], u[:, None], p[:, None], np.stack([c, t], 1)),
        chains, h_ul, combiners, cov, thermal, p_w,
    )
    out = []
    for k, (rate, pair) in enumerate(zip(dl, ul)):
        up, bound = (0.0, 0.0) if pair is None else map(float, pair)
        # Sanity bound: residual SI can only cost rate with this combiner.
        if up > bound * (1.0 + 1e-9) + 1e-12:
            raise RuntimeError("full-duplex UL rate exceeded its interference-free bound")
        scale = 0.5 if plans[k % len(plans)].duplex == "hd" else 1.0
        out.append((scale * (0.0 if rate is None else float(rate)), scale * up))
    return [out[i : i + len(plans)] for i in range(0, len(out), len(plans))]


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
    the unit-power bursts, UE rows and stream gains that follow from them."""
    arch = cfg.arch
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
        h_si_eff = _ro(np.sqrt(bud.si_gain) * draw["h_si"])
        h_si_hat = _ro(
            _pilot_estimate(h_si_eff, draw["n_cal"], consts["si_cal"], bud.bs_noise_w, bud.si_gain)
        )
        ctx["h_si_eff"] = h_si_eff
        ctx["taps"] = _trial_taps(fd, h_si_hat, arch.num_taps)
        # The probe slot's UL pilot plus noise, the same at every power.
        pil_rx = np.sqrt(bud.ul_gain) * (g[5] @ consts["ul_joint"].matrix)
        ctx["ul_noise"] = _ro(pil_rx + np.sqrt(bud.bs_noise_w) * draw["n_burst"])
        ctx["probe"] = {}  # csi mode -> (probe burst or None, noiseless pilot rx)
        ctx["probe_rx"] = {}  # plan -> its probe slot received at unit amplitude
        for plan in fd:
            if plan.csi not in ctx["probe"]:
                if plan.csi == "sequential":
                    # One UE sounds per slot with the full pilot budget; the
                    # newest estimate of UE k is k + 1 slots old when applied.
                    stale = np.column_stack([g[4 - k][:, k] for k in range(u)])
                    pil = consts["ul_single"].matrix
                    sounded = [ul_amp * (g[4 - k][:, k : k + 1] @ pil) for k in range(u)]
                else:
                    stale = g[4]
                    sounded = [ul_amp * (g[4] @ consts["ul_joint"].matrix)]
                w_probe = _zf_or_none(dl_amp * stale.T)
                burst = None if w_probe is None else _ro(w_probe @ draw["s_dl"])
                ctx["probe"][plan.csi] = (burst, [_ro(y) for y in sounded])
            burst = ctx["probe"][plan.csi][0]
            if burst is not None:
                ctx["probe_rx"][plan] = _stage_probe(cfg, ctx, plan, burst)
    if any(plan.duplex == "hd" for plan in plans):
        # Train in the reserved slice of the previous slot, apply now.
        pil = consts["ul_hd"]
        y = np.sqrt(bud.ul_gain) * (g[4] @ pil.matrix)
        y = y + np.sqrt(bud.bs_noise_w) * draw["n_pilot"][0][:, : pil.matrix.shape[1]]
        g_hat = mmse_estimate(y, pil, bud.bs_noise_w, bud.ul_gain)
        w = _zf_or_none(dl_amp * g_hat.T)
        # Unit-power stream gains at the UEs, and the unit-power burst.
        ctx["hd"] = None if w is None else (_ro(np.abs(rows @ w) ** 2), _ro(w @ draw["s_dl"]))
    if any(plan.csi == "perfect" for plan in plans):
        w = _zf_or_none(dl_amp * g[5].T)
        ctx["ideal_gains"] = None if w is None else _ro(np.abs(rows @ w) ** 2)
    return ctx


def _score_c(
    cfg: ScenarioConfig, consts: dict, ctx: dict, power_dbm: float, plans: List[_Plan]
) -> List[Tuple[float, float]]:
    """(DL, UL) rates of every plan at one power; the UL carries no data.

    The ideal-CSI and half-duplex precoders are fixed per trial, so the
    power only scales their stream gains and burst.
    """
    p_w = dbm_to_watt(power_dbm)
    out = []
    for plan in plans:
        if plan.csi == "perfect":
            gains = ctx["ideal_gains"]
            rate = 0.0 if gains is None else _c_dl_rate(cfg, ctx, gains * p_w)
        elif plan.duplex == "hd":
            rate = 0.0
            if ctx["hd"] is not None:
                gains, burst = ctx["hd"]
                rate = _c_dl_rate(cfg, ctx, gains * p_w, np.sqrt(p_w) * burst)
                rate *= cfg.dl_data_fraction
        else:
            rate = _c_fd_rate(cfg, consts, ctx, p_w, plan)
        out.append((rate, 0.0))
    return out


def _stage_probe(
    cfg: ScenarioConfig, ctx: dict, plan: _Plan, burst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A full-duplex plan's probe slot at unit amplitude, received once per
    trial: (s, z_s, z_u) for `_probe_receive`.

    `_tx_impair` drives every chain at a fixed level, so the impaired burst
    scales with its amplitude a: at a = sqrt(p) the slot is a s + u, with
    s = h_si tx(b) - C b the SI of the unit burst b and u the UL pilot plus
    noise.  The regressors of a b span the rows those of b span, so the
    digital stage is linear in the slot too, and its output is a z_s + z_u:
    one fit on b over the rows [s; u], seeded with [h_si_hat - C; 0],
    serves every power.
    """
    taps = ctx["taps"][(plan.taps, plan.layout)]
    x_tx = _tx_impair(burst, cfg.impairments) if plan.impaired else burst
    s = ctx["h_si_eff"] @ x_tx - taps.matrix @ burst
    u = ctx["ul_noise"]
    if not plan.digital:
        return _ro(s), s, u
    seed = np.vstack([taps.resid_lin, np.zeros_like(taps.resid_lin)])
    z = _digital_stage(burst, np.vstack([s, u]), seed)
    return _ro(s), _ro(z[: len(s)]), _ro(z[len(s) :])


def _probe_receive(
    ctx: dict, plan: _Plan, p_w: float, sat: SaturationSpec
) -> Tuple[np.ndarray, np.ndarray]:
    """The residual SI after the last stage and the saturated chains of
    `plan`'s probe slot at power `p_w`, from its staged receive."""
    s, z_s, z_u = ctx["probe_rx"][plan]
    u = ctx["ul_noise"]
    amp = np.sqrt(p_w)
    saturated = check_saturation(np.mean(np.abs(amp * s + u) ** 2, axis=-1), sat)
    return amp * z_s + z_u - u, saturated


def _c_fd_rate(cfg: ScenarioConfig, consts: dict, ctx: dict, p_w: float, plan: _Plan) -> float:
    """Full duplex: measure the steady-state residual with the stale-truth
    probe burst, then estimate under that interference level and zero-force."""
    bud = cfg.budget
    burst, sounded = ctx["probe"][plan.csi]
    if burst is None:
        return 0.0
    z_si, saturated = _probe_receive(ctx, plan, p_w, SaturationSpec(bud.rx_saturation_dbm))
    noise_eff = bud.bs_noise_w + float(np.mean(np.mean(np.abs(z_si) ** 2, axis=1)))
    pil = consts["ul_single" if plan.csi == "sequential" else "ul_joint"]
    g_hat = np.hstack([
        mmse_estimate(y + np.sqrt(noise_eff) * n, pil, noise_eff, bud.ul_gain)
        for y, n in zip(sounded, ctx["n_pilot"])
    ])
    g_hat = g_hat / np.sqrt(bud.ul_gain) * np.sqrt(bud.dl_gain)  # reciprocity
    g_hat[saturated, :] = 0.0  # clipped chains yield no usable estimate
    try:
        w = zf_precoder(g_hat.T)
    except SingularChannelError:
        return 0.0
    # The scored slot only needs the TX distortion the UEs see; its
    # receive side was already measured with the probe.
    x = np.sqrt(p_w) * (w @ ctx["s_dl"]) if plan.impaired else None
    return _c_dl_rate(cfg, ctx, np.abs(ctx["rows"] @ w) ** 2 * p_w, x)


def _c_dl_rate(
    cfg: ScenarioConfig, ctx: dict, gains: np.ndarray, x: Optional[np.ndarray] = None
) -> float:
    """Sum of per-UE log rates; UEs cannot cooperate, so no joint decoding.

    `gains[k, j]` is the power of stream j at UE k.  The UEs also see the
    TX distortion of the radiated burst `x`, when one is given.
    """
    bud = cfg.budget
    dist_ue = np.zeros(cfg.num_ue)
    if x is not None:
        dist = _tx_impair(x, cfg.impairments) - x
        g_now = ctx["g_slots"][5]
        dist_ue = np.mean(np.abs(np.sqrt(bud.dl_gain) * (g_now.T @ dist)) ** 2, axis=1)
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


@dataclass(frozen=True)
class _Beam:
    """One analog beam of scenario d and what follows from it in a trial."""

    f_tx: np.ndarray  # analog beamformer of the codeword, shared by the run
    h_dl_eff: np.ndarray  # DL channel through the beam
    h_si_eff: Optional[np.ndarray]  # SI channel between the chains; None with no FD plan
    h_si_hat: Optional[np.ndarray]  # its calibration estimate
    taps: Dict[Tuple[str, str], _Taps]  # one canceller per (taps, layout) of the FD plans


def _d_beam(cfg: ScenarioConfig, consts: dict, ctx: dict, idx: int) -> _Beam:
    """The trial's entry for codeword `idx`, built on its first use.

    Everything in it is fixed by the draw and the codeword, so the HD
    pointing, the warm-up and scored passes and every power share it.
    """
    beams = ctx["beams"]
    if idx not in beams:
        bud = cfg.budget
        f_tx = consts["d_f_tx"][idx]
        h_si_eff = h_si_hat = None
        taps: Dict[Tuple[str, str], _Taps] = {}
        if ctx["fd"]:
            h_si_eff = _ro(np.sqrt(bud.si_gain) * effective_si_channel(
                ctx["h_si"], f_tx, np.eye(cfg.arch.n_rx, dtype=complex)
            ))
            h_si_hat = _ro(
                _pilot_estimate(h_si_eff, ctx["n_cal"], consts["si_cal"], bud.bs_noise_w, bud.si_gain)
            )
            taps = _trial_taps(ctx["fd"], h_si_hat, cfg.arch.num_taps)
        h_dl_eff = _ro(np.sqrt(bud.dl_gain) * (ctx["h_dl"] @ f_tx))
        beams[idx] = _Beam(f_tx, h_dl_eff, h_si_eff, h_si_hat, taps)
    return beams[idx]


def _d_point(
    cfg: ScenarioConfig, consts: dict, ctx: dict, theta: float
) -> Tuple[_Beam, np.ndarray]:
    """The beam for a pointing angle and the digital weight matched to it."""
    arch = cfg.arch
    beam = _d_beam(cfg, consts, ctx, beam_select_doa(theta, consts["d_book"]))
    a_full = np.exp(1j * np.pi * np.arange(arch.n_tx) * np.sin(theta))
    w = (a_full @ beam.f_tx).conj()[:, None]
    norm = np.linalg.norm(w)
    if norm > 0:
        w = w / norm
    return beam, w


def _d_dl(
    cfg: ScenarioConfig, h_eff: np.ndarray, w: np.ndarray, burst: Optional[np.ndarray], p_w: float
) -> float:
    """DL rate of precoder `w` through `h_eff` at power `p_w`.  The UE also
    sees the TX distortion of the radiated `burst` (w s_dl at unit power)
    when one is given."""
    bud = cfg.budget
    dist_pow = 0.0
    if burst is not None:
        x = np.sqrt(p_w) * burst
        dist = _tx_impair(x, cfg.impairments) - x
        dist_pow = float(np.mean(np.abs(h_eff @ dist) ** 2))
    sig = p_w * float(np.abs(h_eff @ w)[0, 0] ** 2)
    return float(np.log2(1.0 + sig / (dist_pow + bud.ue_noise_w)))


def _prepare_d(cfg: ScenarioConfig, consts: dict, draw: dict, plans: List[_Plan]) -> dict:
    """Per-trial context: every pointing that does not depend on the power.

    That is the true angle's beam and matched weight (ideal CSI's beam and
    the full-duplex warm-up's first pointing), ideal CSI's precoder, the
    HD angle estimate with its beam and unit-power burst (trained at the
    fixed `ul_power_dbm`), and the full-duplex slot's UL pilot and noise.
    `ctx["beams"]` memoizes each codeword's channels and cancellers.
    """
    arch = cfg.arch
    bud = cfg.budget
    pil_w = dbm_to_watt(bud.ul_power_dbm)
    h_ul = np.sqrt(bud.ul_gain) * draw["h_ul"]
    ctx = dict(draw)
    ctx["fd"] = [plan for plan in plans if plan.duplex == "fd" and plan.csi != "perfect"]
    ctx["beams"] = {}  # codeword index -> _Beam
    perfect = any(plan.csi == "perfect" for plan in plans)
    if perfect or ctx["fd"]:
        beam, w = _d_point(cfg, consts, ctx, draw["theta"])
        ctx["ideal"] = (beam, _ro(w))
        if perfect:
            h_eff = beam.h_dl_eff
            ctx["ideal_w"] = _ro(h_eff.conj().T / np.linalg.norm(h_eff))
    if any(plan.duplex == "hd" for plan in plans):
        y = h_ul * np.sqrt(pil_w) + np.sqrt(bud.bs_noise_w) * draw["n_slot"][:, : cfg.hd_pilot_len]
        theta_hat = doa_estimate(y, consts["d_sweep"], consts["d_angles"])
        theta_hat = _interferometric_doa(y, np.arange(arch.n_rx_rf), theta_hat)
        beam, w = _d_point(cfg, consts, ctx, theta_hat)
        ctx["hd"] = (beam, _ro(w), _ro(w @ draw["s_dl"]))
    if ctx["fd"]:
        ctx["ul"] = _ro(h_ul @ (np.sqrt(pil_w) * np.ones((1, cfg.packet_symbols))))
        ctx["noise"] = _ro(np.sqrt(bud.bs_noise_w) * draw["n_slot"])
    return ctx


def _d_fd_rate(cfg: ScenarioConfig, consts: dict, ctx: dict, p_w: float, plan: _Plan) -> float:
    """Full duplex: the pointing angle in use came from last slot's training
    under the same interference conditions.  One warm-up pass from the true
    angle stands in for that history; the second pass is the scored slot."""
    bud = cfg.budget
    sat = SaturationSpec(bud.rx_saturation_dbm)
    mu_w = 0.5 * sat.max_input_w if plan.budget == "saturation" else bud.bs_noise_w
    key = (plan.taps, plan.layout)
    beam, w = ctx["ideal"]
    taps = beam.taps[key]
    try:
        w = si_aware_precoder_projection(w, beam.h_si_hat, taps.state, mu_w / p_w)
    except InfeasibleProjectionError:
        return 0.0
    x = np.sqrt(p_w) * (w @ ctx["s_dl"])
    x_tx = _tx_impair(x, cfg.impairments) if plan.impaired else x
    _, z, saturated = _fd_receive(
        beam.h_si_eff, taps.matrix, taps.resid_lin, x, x_tx, ctx["ul"], ctx["noise"],
        plan.digital, sat,
    )
    alive = ~saturated
    if np.any(alive):
        coarse = doa_estimate(z[alive], consts["d_sweep"][:, alive], consts["d_angles"])
        theta = _interferometric_doa(z, np.flatnonzero(alive), coarse)
    else:
        theta = float(consts["d_angles"][0])  # training slot lost to clipping
    beam, w = _d_point(cfg, consts, ctx, theta)
    try:
        w = si_aware_precoder_projection(w, beam.h_si_hat, beam.taps[key].state, mu_w / p_w)
    except InfeasibleProjectionError:
        return 0.0
    return _d_dl(cfg, beam.h_dl_eff, w, w @ ctx["s_dl"] if plan.impaired else None, p_w)


def _score_d(
    cfg: ScenarioConfig, consts: dict, ctx: dict, power_dbm: float, plans: List[_Plan]
) -> List[Tuple[float, float]]:
    """(DL, UL) rates of every plan at one power; the UL carries no data.

    Ideal CSI and half duplex point once per trial, so the power only
    scales their signal and burst; each full-duplex plan trains and
    points anew at every power (`_d_fd_rate`).
    """
    p_w = dbm_to_watt(power_dbm)
    out = []
    for plan in plans:
        if plan.csi == "perfect":
            rate = _d_dl(cfg, ctx["ideal"][0].h_dl_eff, ctx["ideal_w"], None, p_w)
        elif plan.duplex == "hd":
            beam, w, burst = ctx["hd"]
            rate = cfg.dl_data_fraction * _d_dl(cfg, beam.h_dl_eff, w, burst, p_w)
        else:
            rate = _d_fd_rate(cfg, consts, ctx, p_w, plan)
        out.append((rate, 0.0))
    return out


# ---------------------------------------------------------------------------
# drivers


def _run_constants(cfg: ScenarioConfig, powers: Sequence[float]) -> Dict[object, object]:
    """What the config and `powers` fix for the whole run, built and checked
    once, all read-only.

    Pilot matrices, with the powers the config fixes folded in.  The DL
    and UL sounding pilots of scenarios a and b follow the swept power:
    they are scaled for each of `powers`, the powers the run scores, under
    keys ("dl", power) and ("ul", power).  Scenario d adds its beam grid:
    the codeword angles, the DOA sweep over them, the codebook and the
    analog beamformer of each codeword.
    """
    arch = cfg.arch
    # c and d train over the whole packet.
    lp = cfg.pilots.num_pilots if cfg.scenario in ("a", "b") else cfg.packet_symbols
    cal_w = dbm_to_watt(cfg.pilots.power_dbm)
    consts = {"si_cal": np.sqrt(cal_w / arch.n_tx_rf) * orthogonal_pilots(arch.n_tx_rf, lp)}
    if cfg.scenario in ("a", "b"):
        dl = orthogonal_pilots(arch.n_tx_rf, lp)
        ul = orthogonal_pilots(cfg.ul_streams, lp)
        for p in powers:
            consts["dl", p] = np.sqrt(dbm_to_watt(p) / arch.n_tx_rf) * dl
            consts["ul", p] = np.sqrt(dbm_to_watt(p) / cfg.ul_streams) * ul
    elif cfg.scenario == "c":
        amp = np.sqrt(dbm_to_watt(cfg.budget.ul_power_dbm))
        consts["ul_joint"] = amp * orthogonal_pilots(cfg.num_ue, lp)
        consts["ul_single"] = amp * orthogonal_pilots(1, lp)
        consts["ul_hd"] = amp * orthogonal_pilots(cfg.num_ue, cfg.hd_pilot_len)
    out: Dict[object, object] = {name: Pilots(_ro(a)) for name, a in consts.items()}
    if cfg.scenario == "d":
        angles = dft_beam_angles(arch.tx_subarray)
        out["d_angles"] = _ro(angles)
        out["d_sweep"] = _ro(np.vstack([steering_vector(arch.n_rx_rf, a) for a in angles]))
        out["d_book"] = _ro(dft_codebook(arch.tx_subarray, arch.phase_bits))
        out["d_f_tx"] = tuple(
            _ro(assemble_analog_bf([idx] * arch.n_tx_rf, arch, "tx"))
            for idx in range(arch.tx_subarray)
        )
    return out


@dataclass(frozen=True)
class _Driver:
    """How one scenario runs a trial: `draw` it from the RNG, `prepare` its
    power-free context, take each power through `stage`, and, when given,
    `finish` the per-power rows into (DL, UL) rates; without `finish` the
    rows are the rates."""

    draw: Callable
    prepare: Callable
    stage: Callable
    finish: Optional[Callable] = None


_DRIVERS: Dict[str, _Driver] = {
    "a": _Driver(_draw_ab, _prepare_ab, _receive_ab, _score_ab),
    "b": _Driver(_draw_ab, _prepare_ab, _receive_ab, _score_ab),
    "c": _Driver(_draw_c, _prepare_c, _score_c),
    "d": _Driver(_draw_d, _prepare_d, _score_d),
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
    cfg: ScenarioConfig, consts: dict, rng: np.random.Generator, powers: Sequence[float],
    schemes: Sequence[str], trial: Optional[int] = None,
) -> List[List[Tuple[float, float]]]:
    """(DL, UL) rates per power and scheme for one trial drawn from `rng`.

    Draws the trial and builds its context once, then takes every power
    through the per-power stage; in a and b one rate pass then scores the
    whole trial.  Given the `trial` index, a fault is re-raised as
    TrialError naming where it happened.
    """
    plans = [_PLANS[cfg.scenario][s] for s in schemes]
    drv = _DRIVERS[cfg.scenario]
    ctx = power_dbm = None
    try:
        ctx = drv.prepare(cfg, consts, drv.draw(cfg, rng), plans)
        rows = []
        for power_dbm in powers:
            rows.append(drv.stage(cfg, consts, ctx, power_dbm, plans))
        power_dbm = None
        return rows if drv.finish is None else drv.finish(cfg, ctx, rows, plans)
    except Exception as exc:
        if trial is None:
            raise
        where = _trial_label(cfg, trial)
        if ctx is None:
            where += " (set-up)"
        else:
            # A fault in the rate pass may lie at any power.
            tried = powers if power_dbm is None else [power_dbm]
            power_dbm, scheme = _failing_point(cfg, consts, ctx, drv, tried, schemes)
            if power_dbm is not None:
                where += f", power {power_dbm:g} dBm"
            if scheme is not None:
                where += f", scheme {scheme}"
        raise TrialError(f"{where}: {type(exc).__name__}: {exc}") from exc


def _failing_point(
    cfg, consts, ctx, drv: _Driver, powers: Sequence[float], schemes: Sequence[str]
) -> Tuple[Optional[float], Optional[str]]:
    """The first (power, scheme) that also fails when scored alone, as
    `run_trial` scores it: a failed stack does not say which member.
    When no single point reproduces the fault, the scheme is None, and so
    is the power unless only one was tried."""
    if len(powers) * len(schemes) == 1:
        return powers[0], schemes[0]
    for p in powers:
        for scheme in schemes:
            plan = [_PLANS[cfg.scenario][scheme]]
            try:
                row = drv.stage(cfg, consts, ctx, p, plan)
                if drv.finish is not None:
                    drv.finish(cfg, ctx, [row], plan)
            except Exception:  # noqa: BLE001  any fault reproduces the stacked one
                return p, scheme
    return (powers[0] if len(powers) == 1 else None), None


def run_trial(
    cfg: ScenarioConfig, power_dbm: float, scheme: str, rng: np.random.Generator
) -> Tuple[float, float]:
    """Single Monte Carlo trial; returns the (DL, UL) rate pair in bps/Hz."""
    if scheme not in allowed_schemes(cfg.scenario):
        raise ValueError(f"scheme {scheme!r} not defined for scenario {cfg.scenario!r}")
    powers = (power_dbm,)
    return _eval_draw(cfg, _run_constants(cfg, powers), rng, powers, (scheme,))[0][0]


def _trial_rates(cfg: ScenarioConfig, consts: dict, trial: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(trial,)))
    pairs = _eval_draw(cfg, consts, rng, cfg.power_sweep_dbm, cfg.schemes, trial)
    out = np.array([[dl + ul for dl, ul in row] for row in pairs])
    order = np.argsort(cfg.power_sweep_dbm, kind="stable")
    for isch, scheme in enumerate(cfg.schemes):
        plan = _PLANS[cfg.scenario][scheme]
        if plan.csi == "perfect" and not plan.impaired:
            if np.any(np.diff(out[order, isch]) < -1e-9):
                raise TrialError(
                    f"{_trial_label(cfg, trial)}, scheme {scheme}: rate decreased with power"
                )
    return out


def run_scenario(cfg: ScenarioConfig) -> List[CurvePoint]:
    """Sweep power and schemes over `cfg.trials` Monte Carlo trials.

    Work is staged by what it depends on: per run the pilot matrices
    (in a and b scaled to every swept power), c's aging rho and d's beam
    grid, per trial the draw and everything power-free (SI estimate, taps,
    in c the precoders, their bursts and UE gains, and each full-duplex
    probe slot received at unit amplitude, in d the ideal-CSI and HD
    pointings and each used codeword's channels and cancellers), per power
    the rest.  In a and b each power's schemes sharing a burst are
    received together, and one rate pass per trial scores every (power,
    scheme) as one stack; c and d score each power as one row.

    Each trial draws from its own child seed, so results do not depend on
    the order trials run in.  With trials=1 each point equals `run_trial`
    seeded with SeedSequence(entropy=seed, spawn_key=(0,)).  A failing
    trial raises TrialError.
    """
    consts = _run_constants(cfg, cfg.power_sweep_dbm)
    rates = np.zeros((cfg.trials, len(cfg.power_sweep_dbm), len(cfg.schemes)))
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
