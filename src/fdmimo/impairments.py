"""Transmit RF chain impairment models: IQ imbalance and PA nonlinearity.

Signals are baseband complex samples whose instantaneous power |x|^2 is in
watts.  `iq_imbalance` and `pa_nonlinearity` act on the samples as given;
`apply_tx_chain` runs both at the configured drive level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def dbm_to_watt(p_dbm: float) -> float:
    """Convert a dBm power to watts."""
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def check_dbm(name: str, p_dbm: float) -> None:
    """Reject a configured power that is not finite or lies beyond 300 dBm.

    Far outside that range `dbm_to_watt` overflows, so such a value is a
    configuration error rather than a fault of the simulation.
    """
    if not (np.isfinite(p_dbm) and abs(p_dbm) <= 300.0):
        raise ValueError(f"{name} must be a finite power within [-300, 300] dBm, got {p_dbm!r}")


# How far under the intercept `pa_nonlinearity` peaks: the output magnitude
# r - 4 r^3 / (3 A^2) is largest at r^2 = A^2 / 4, 10 log10(4) dB below A^2.
PA_TURNOVER_DB = 10.0 * np.log10(4.0)


def watt_to_dbm(p_w: float) -> float:
    """Convert a watt power to dBm."""
    if p_w <= 0:
        raise ValueError("power must be positive")
    return 10.0 * np.log10(p_w) + 30.0


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
        if self.iip3_dbm != np.inf:
            check_dbm("iip3_dbm", self.iip3_dbm)
        check_dbm("drive_dbm", self.drive_dbm)
        if self.enabled and self.drive_dbm >= self.iip3_dbm - PA_TURNOVER_DB:
            raise ValueError(
                f"drive_dbm must lie below iip3_dbm - {PA_TURNOVER_DB:.2f} dB, where the PA "
                f"model's output turns over; got drive_dbm {self.drive_dbm!r} with iip3_dbm "
                f"{self.iip3_dbm!r}"
            )


def pa_nonlinearity(x: np.ndarray, iip3_dbm: float) -> np.ndarray:
    """Memoryless third-order PA model.

    y = x - (4 / (3 A^2)) * x * |x|^2 with A^2 the input-referred intercept
    power in watts, so a two-tone test at per-tone input power P dBm puts
    the third-order products at exactly 3P - 2*IIP3 dBm.  An infinite
    intercept returns the input unchanged.
    """
    if np.isinf(iip3_dbm):
        return np.asarray(x, dtype=complex)
    a2 = dbm_to_watt(iip3_dbm)
    x = np.asarray(x, dtype=complex)
    mag2 = np.abs(x)
    mag2 **= 2
    y = np.multiply(x, 4.0 / (3.0 * a2))
    y *= mag2
    return np.subtract(x, y, out=y)


def iq_imbalance(x: np.ndarray, irr_db: float) -> np.ndarray:
    """Frequency-flat IQ mixer imbalance.

    Adds a conjugate image at -irr_db relative to the signal:
    y = x + nu * conj(x) with nu = 10^(-irr/20).
    """
    if np.isinf(irr_db):
        return np.asarray(x, dtype=complex)
    nu = 10.0 ** (-irr_db / 20.0)
    x = np.asarray(x, dtype=complex)
    y = np.conj(x)
    y *= nu
    y += x
    return y


def apply_tx_chain(x: np.ndarray, cfg: TxImpairmentConfig) -> np.ndarray:
    """Run per-chain samples through the IQ stage then the PA stage, at
    the fixed drive level.

    `x` holds one chain per row (or a single vector); the same hardware
    model applies to every chain.  Each chain with power is scaled to
    `cfg.drive_dbm`, distorted and scaled back, so the distortion-to-signal
    ratio is set by the hardware operating point rather than by the
    commanded output power, and the output is homogeneous in the amplitude
    of `x`.  Each stage computes in arrays it allocates itself and never
    writes into its input.
    """
    x = np.asarray(x, dtype=complex)
    if not cfg.enabled:
        return x
    p = np.abs(x)
    p **= 2
    p = np.mean(p, axis=-1, keepdims=True)
    scale = np.ones_like(p)
    live = p > 0
    scale[live] = np.sqrt(dbm_to_watt(cfg.drive_dbm) / p[live])
    y = pa_nonlinearity(iq_imbalance(x * scale, cfg.irr_db), cfg.iip3_dbm)
    y /= scale
    return y
