"""Scenario config types: everything `cli.parse_config` builds or checks.

The hardware sections (`ArchitectureConfig`, `TxImpairmentConfig`,
`PilotConfig`, `AgingParams`, `LinkBudget`), the scheme table of each
scenario (`_PLANS`), the `ScenarioConfig` that holds them, the
`CurvePoint` a run returns and the analog hardware counts of
`complexity_report`.

This module must stay numpy-free, and so must every module it imports:
importing `fdmimo`, parsing a config, `fdmimo validate`, `fdmimo
complexity` and every config error load no numpy, which is most of a cold
start's time.  Checks use `math`; the simulator modules import numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


def dbm_to_watt(p_dbm: float) -> float:
    """Convert a dBm power to watts."""
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def check_dbm(name: str, p_dbm: float) -> None:
    """Reject a configured power that is not finite or lies beyond 300 dBm.

    Far outside that range `dbm_to_watt` overflows, so such a value is a
    configuration error rather than a fault of the simulation.
    """
    if not (math.isfinite(p_dbm) and abs(p_dbm) <= 300.0):
        raise ValueError(f"{name} must be a finite power within [-300, 300] dBm, got {p_dbm!r}")


# How far under the intercept `pa_nonlinearity` peaks: the output magnitude
# r - 4 r^3 / (3 A^2) is largest at r^2 = A^2 / 4, 10 log10(4) dB below A^2.
PA_TURNOVER_DB = 10.0 * math.log10(4.0)


@dataclass(frozen=True)
class TxImpairmentConfig:
    """Per-chain transmit impairment settings.

    `iip3_dbm` is the input-referred third-order intercept of the PA model
    and `irr_db` the image rejection ratio of the IQ mixer.  `drive_dbm` is
    the per-chain power at which the RF hardware is driven: `apply_tx_chain`
    normalizes each chain to this level before applying the impairments and
    restores the commanded power afterwards, which models output gain
    staging at a fixed PA operating point.  `enabled=False` bypasses both
    impairments entirely; `iip3_dbm=inf` removes the PA nonlinearity.

    With the PA model on, the drive must stay below `PA_TURNOVER_DB` under
    the intercept: there the cubic's output peaks, and past it the output
    falls and then grows without bound, so the distortion can leave the
    float range.
    """

    iip3_dbm: float = 20.0
    irr_db: float = 30.0
    enabled: bool = True
    drive_dbm: float = -15.0

    def __post_init__(self):
        if self.irr_db <= 0:
            raise ValueError("irr_db must be positive")
        if self.iip3_dbm != math.inf:
            check_dbm("iip3_dbm", self.iip3_dbm)
        check_dbm("drive_dbm", self.drive_dbm)
        if self.enabled and self.drive_dbm >= self.iip3_dbm - PA_TURNOVER_DB:
            raise ValueError(
                f"drive_dbm must lie below iip3_dbm - {PA_TURNOVER_DB:.2f} dB, where the PA "
                f"model's output turns over; got drive_dbm {self.drive_dbm!r} with iip3_dbm "
                f"{self.iip3_dbm!r}"
            )


@dataclass(frozen=True)
class ArchitectureConfig:
    """Transceiver array geometry and hardware budgets.

    `n_tx` / `n_rx` count antennas, `n_tx_rf` / `n_rx_rf` RF chains, and
    `num_taps` the analog canceller taps.  Each side splits into equal
    contiguous sub-arrays, one per chain.  A fully digital array is the
    case of one antenna per chain, whose analog stage is the identity.
    """

    n_tx: int
    n_rx: int
    n_tx_rf: int
    n_rx_rf: int
    phase_bits: int = 3
    num_taps: int = 0

    def __post_init__(self):
        if min(self.n_tx, self.n_rx, self.n_tx_rf, self.n_rx_rf) < 1:
            raise ValueError("antenna and chain counts must be positive")
        if self.n_tx_rf > self.n_tx or self.n_rx_rf > self.n_rx:
            raise ValueError("cannot have more RF chains than antennas")
        if self.n_tx % self.n_tx_rf or self.n_rx % self.n_rx_rf:
            raise ValueError("antennas must split evenly across RF chains")
        if self.phase_bits < 1:
            raise ValueError("phase_bits must be >= 1")
        if not 0 <= self.num_taps <= self.n_tx_rf * self.n_rx_rf:
            raise ValueError("num_taps must lie in [0, n_tx_rf * n_rx_rf]")

    @property
    def tx_subarray(self) -> int:
        return self.n_tx // self.n_tx_rf

    @property
    def rx_subarray(self) -> int:
        return self.n_rx // self.n_rx_rf


@dataclass(frozen=True)
class PilotConfig:
    """Pilot budget and training power.

    `num_pilots` is the training length of scenarios a and b (c and d
    train over the whole packet); `power_dbm` the total transmit power of
    the self-interference calibration.
    """

    num_pilots: int = 40
    power_dbm: float = 10.0

    def __post_init__(self):
        if self.num_pilots < 1:
            raise ValueError("num_pilots must be >= 1")
        check_dbm("power_dbm", self.power_dbm)


def _doppler_argument(doppler_hz: float, slot_s: float) -> float:
    """The Bessel argument 2 pi fD Ts, or ValueError unless all three are finite."""
    if not (0 <= doppler_hz < math.inf and 0 < slot_s < math.inf):
        raise ValueError("doppler_hz must be finite and >= 0, slot_s finite and > 0")
    x = 2.0 * math.pi * doppler_hz * slot_s
    if x == math.inf:
        raise ValueError("2 pi doppler_hz slot_s must be finite")
    return x


def _bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero, at x >= 0.

    Up to x = 25 the power series sum_k (-x^2/4)^k / (k!)^2 is summed in
    exact integer arithmetic and rounded once, so the result is correctly
    rounded.  Once its terms shrink the series alternates, so the sum lies
    between consecutive partial sums: it stops when both round to the same
    float.  Beyond 25 the Hankel expansion
    sqrt(2/(pi x)) (P cos(x - pi/4) - Q sin(x - pi/4)) is summed in floats
    until its terms fall below 1e-17, which they do long before the series
    starts to diverge near k = 2x.
    """
    if x <= 25.0:
        # x^2/4 is n/d exactly, and the k-th partial sum is num/den with
        # den = d^k (k!)^2, so each term adds without rounding.
        xn, xd = x.as_integer_ratio()
        n, d = xn * xn, 4 * xd * xd
        num = den = top = 1
        k = 0
        while True:
            k += 1
            top *= -n
            before = num / den  # int / int is correctly rounded
            step = d * k * k
            num = num * step + top
            den *= step
            if k * k * d > n and num / den == before:
                return before
    # With a_k = prod_{j<=k} -(2j-1)^2 / (k! (8x)^k), P = a_0 - a_2 + a_4 - ...
    # takes the even terms and Q = a_1 - a_3 + ... the odd ones (Q ~ -1/(8x)).
    p = q = 0.0
    a, k = 1.0, 0
    while abs(a) > 1e-17:
        signed = -a if k % 4 >= 2 else a
        if k % 2:
            q += signed
        else:
            p += signed
        k += 1
        a *= -((2 * k - 1) ** 2) / (8.0 * k * x)
    # cos(x - pi/4) = (cos x + sin x)/sqrt 2, sin(x - pi/4) = (sin x - cos x)/sqrt 2.
    c, s = math.cos(x), math.sin(x)
    return math.sqrt(1.0 / (math.pi * x)) * (p * (c + s) - q * (s - c))


def doppler_correlation(doppler_hz: float, slot_s: float) -> float:
    """Slot-to-slot correlation coefficient J0(2 pi fD Ts), clamped to [0, 1].

    At the bundled 50 Hz and 1 ms this equals scipy.special.j0 bit for bit;
    for arguments up to 100 it lies within 1e-15 of it.
    """
    return max(0.0, _bessel_j0(_doppler_argument(doppler_hz, slot_s)))


@dataclass(frozen=True)
class AgingParams:
    """Doppler spread and slot duration defining the slot-to-slot correlation."""

    doppler_hz: float
    slot_s: float
    rho: float = field(init=False)  # one Bessel evaluation per config

    def __post_init__(self):
        object.__setattr__(self, "rho", doppler_correlation(self.doppler_hz, self.slot_s))


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

    @property
    def rx_saturation_w(self) -> float:
        return dbm_to_watt(self.rx_saturation_dbm)


@dataclass(frozen=True)
class _Plan:
    """How one scheme wires the transceiver for a trial.

    `digital` also sets the residual SI that a full-duplex precoder
    projection may leave (`_project`).  A digital stage cancels what
    reaches it, so the residual only has to keep the receive chains out
    of saturation, with half the limit as margin; without one the residual
    stays in the samples, so it must stay under the BS noise floor.
    """

    taps: str = "config"  # "config" | "full" | "none"
    digital: bool = True
    impaired: bool = True
    duplex: str = "fd"  # "fd" | "hd"
    csi: str = "estimated"  # "estimated" | "sequential" | "perfect"
    null_depth: bool = False  # fixed half-dimension null-space projection


_PLANS: Dict[str, Dict[str, _Plan]] = {
    "a": {
        "proposed": _Plan(),
        "proposed-ideal": _Plan(impaired=False),
        "benchmark": _Plan(taps="full", digital=False, null_depth=True),
        "benchmark-ideal": _Plan(taps="full", digital=False, impaired=False, null_depth=True),
        "hd": _Plan(taps="none", digital=False, duplex="hd"),
    },
    "b": {
        "proposed": _Plan(),
        "benchmark": _Plan(taps="none", digital=False),
        "hd": _Plan(taps="none", digital=False, duplex="hd"),
    },
    "c": {
        "proposed": _Plan(),
        "benchmark": _Plan(taps="full", csi="sequential"),
        "ideal-csi": _Plan(taps="full", digital=False, impaired=False, csi="perfect"),
        "hd": _Plan(taps="none", digital=False, duplex="hd"),
    },
    "d": {
        "proposed": _Plan(),
        "benchmark": _Plan(taps="full"),
        "ideal-csi": _Plan(taps="full", digital=False, impaired=False, csi="perfect"),
        "hd": _Plan(taps="none", digital=False, duplex="hd"),
    },
}


# Scenario codes; `configs/scenario_<code>.json` holds each one's values and keys.
SCENARIOS = tuple(_PLANS)


def allowed_schemes(scenario: str) -> Tuple[str, ...]:
    """Scheme labels defined for a scenario, in canonical order."""
    if scenario not in _PLANS:
        raise ValueError(f"unknown scenario {scenario!r}")
    return tuple(_PLANS[scenario])


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation campaign.  A scenario
    ignores the fields its bundled config does not set."""

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
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if len(self.power_sweep_dbm) < 1:
            raise ValueError("power_sweep_dbm must not be empty")
        for i, p in enumerate(self.power_sweep_dbm):
            check_dbm(f"power_sweep_dbm[{i}]", p)
        # A repeat would write its rows twice; 0.0 and -0.0 are one power.
        if len(set(self.power_sweep_dbm)) < len(self.power_sweep_dbm):
            raise ValueError("power_sweep_dbm must not repeat a power")
        if len(self.schemes) < 1:
            raise ValueError("schemes must not be empty")
        if len(set(self.schemes)) < len(self.schemes):
            raise ValueError("schemes must not repeat a scheme")
        legal = allowed_schemes(self.scenario)
        for s in self.schemes:
            if s not in legal:
                raise ValueError(
                    f"scheme {s!r} not defined for scenario {self.scenario!r}; "
                    f"choose from {legal}"
                )
        if self.scenario in ("a", "c") and (
            self.arch.n_tx != self.arch.n_tx_rf or self.arch.n_rx != self.arch.n_rx_rf
        ):
            raise ValueError(
                f"scenario {self.scenario!r} uses a fully digital array, one RF chain per antenna"
            )
        if min(self.num_ue, self.dl_ue_antennas, self.ul_ue_antennas, self.ul_streams) < 1:
            raise ValueError("UE counts, antennas and streams must be >= 1")
        # Past this range 10^(K/10) overflows or the Rician weights turn NaN.
        for name in ("kappa_si_db", "kappa_ue_db"):
            if not abs(getattr(self, name)) <= 300.0:
                raise ValueError(f"{name!r} must be a finite K-factor within [-300, 300] dB, "
                                 f"got {getattr(self, name)!r}")
        if self.scenario == "c":
            if self.aging is None:
                raise ValueError("scenario 'c' requires aging parameters")
            if self.num_ue > self.arch.n_tx_rf:
                raise ValueError("cannot zero-force more UEs than transmit chains")
            # The UL channel, transposed, is the DL channel: one array serves both.
            if self.arch.n_tx != self.arch.n_rx:
                raise ValueError("scenario 'c' uses reciprocal channels, so n_tx must equal n_rx")
        # d's receive side has no analog beamformer: each antenna is a chain.
        if self.scenario == "d" and self.arch.n_rx != self.arch.n_rx_rf:
            raise ValueError("scenario 'd' receives on every antenna, so n_rx must equal n_rx_rf")
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
