"""Transmit RF chain impairment models: IQ imbalance and PA nonlinearity.

Signals are baseband complex samples whose instantaneous power |x|^2 is in
watts.  `iq_imbalance` and `pa_nonlinearity` act on the samples as given;
`apply_tx_chain` runs both at the configured drive level.
"""

from __future__ import annotations

import numpy as np

from fdmimo.config import TxImpairmentConfig, dbm_to_watt


def watt_to_dbm(p_w: float) -> float:
    """Convert a watt power to dBm."""
    if p_w <= 0:
        raise ValueError("power must be positive")
    return 10.0 * np.log10(p_w) + 30.0


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
