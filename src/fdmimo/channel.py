"""Fading channel generators and first-order channel aging.

All generators return dense complex matrices with unit average entry power;
link gains (pathloss, antenna isolation) are applied by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class RicianParams:
    """Rician fading description.

    Parameters
    ----------
    kappa_db : float
        Ratio of deterministic to scattered power in dB.
    rows, cols : int
        Matrix dimensions (receive x transmit).
    """

    kappa_db: float
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")


@dataclass(frozen=True)
class ClusteredParams:
    """Geometric multipath description for large planar-wave channels.

    `aod` / `aoa` fix the per-path departure/arrival angles in radians; when
    left as None each realization draws them uniformly in [-pi/2, pi/2].
    """

    num_paths: int
    rx_size: int
    tx_size: int
    aod: Optional[Sequence[float]] = None
    aoa: Optional[Sequence[float]] = None

    def __post_init__(self):
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")
        if self.rx_size < 1 or self.tx_size < 1:
            raise ValueError("array sizes must be positive")
        for name, angles in (("aod", self.aod), ("aoa", self.aoa)):
            if angles is not None and len(angles) != self.num_paths:
                raise ValueError(f"{name} must list one angle per path")


@dataclass(frozen=True)
class AgingParams:
    """Doppler spread and slot duration defining the slot-to-slot correlation."""

    doppler_hz: float
    slot_s: float

    def __post_init__(self):
        if self.doppler_hz < 0 or self.slot_s <= 0:
            raise ValueError("doppler_hz must be >= 0 and slot_s > 0")

    @property
    def rho(self) -> float:
        return doppler_correlation(self.doppler_hz, self.slot_s)


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Circularly symmetric complex Gaussian matrix with unit entry variance."""
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def gen_rayleigh(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an i.i.d. Rayleigh fading matrix.

    Parameters
    ----------
    rows, cols : int
        Receive and transmit dimensions.
    rng : numpy.random.Generator
        Source of randomness.

    Returns
    -------
    numpy.ndarray
        (rows, cols) complex matrix with entries CN(0, 1).
    """
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    return complex_gaussian(rng, rows, cols)


def gen_rician(
    params: RicianParams,
    rng: np.random.Generator,
    los: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Draw a Rician fading matrix.

    The deterministic component defaults to unit-modulus entries with
    phases drawn uniformly per realization; a caller with array geometry
    can pass an explicit unit-modulus `los` matrix instead.

    Returns
    -------
    numpy.ndarray
        (rows, cols) complex matrix with unit average entry power.
    """
    kappa = 10.0 ** (params.kappa_db / 10.0)
    if los is None:
        los = np.exp(2j * np.pi * rng.uniform(size=(params.rows, params.cols)))
    elif los.shape != (params.rows, params.cols):
        raise ValueError("los shape does not match params dimensions")
    scatter = complex_gaussian(rng, params.rows, params.cols)
    return np.sqrt(kappa / (kappa + 1.0)) * los + np.sqrt(1.0 / (kappa + 1.0)) * scatter


def steering_vector(n: int, theta: float) -> np.ndarray:
    """Unit-norm response of an n-element half-wavelength ULA toward angle theta."""
    if n < 1:
        raise ValueError("array size must be positive")
    k = np.arange(n)
    return np.exp(1j * np.pi * k * np.sin(theta)) / np.sqrt(n)


def gen_clustered_mmwave(params: ClusteredParams, rng: np.random.Generator) -> np.ndarray:
    """Draw a sparse multipath matrix from sums of steering outer products.

    Each path carries a CN(0, 1) gain; the sqrt(rx*tx/P) front factor keeps
    the average entry power at one regardless of the path count.

    Returns
    -------
    numpy.ndarray
        (rx_size, tx_size) complex matrix.
    """
    p = params.num_paths
    aod = params.aod if params.aod is not None else rng.uniform(-np.pi / 2, np.pi / 2, p)
    aoa = params.aoa if params.aoa is not None else rng.uniform(-np.pi / 2, np.pi / 2, p)
    gains = (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / np.sqrt(2.0)
    h = np.zeros((params.rx_size, params.tx_size), dtype=complex)
    for alpha, th_rx, th_tx in zip(gains, aoa, aod):
        a_rx = steering_vector(params.rx_size, th_rx)
        a_tx = steering_vector(params.tx_size, th_tx)
        h += alpha * np.outer(a_rx, a_tx.conj())
    return np.sqrt(params.rx_size * params.tx_size / p) * h


def doppler_correlation(doppler_hz: float, slot_s: float) -> float:
    """Slot-to-slot correlation coefficient J0(2 pi fD Ts), clamped to [0, 1]."""
    if doppler_hz < 0 or slot_s <= 0:
        raise ValueError("doppler_hz must be >= 0 and slot_s > 0")
    # Imported here: scipy.special adds ~0.25 s to every start and only aging uses it.
    from scipy.special import j0

    return float(np.clip(j0(2.0 * np.pi * doppler_hz * slot_s), 0.0, 1.0))


def evolve_gauss_markov(
    h_prev: np.ndarray, rho: float, rng: np.random.Generator
) -> np.ndarray:
    """Advance a channel one slot under a first-order Gauss-Markov process.

    Innovation entries are CN(0, 1) scaled by sqrt(1 - rho^2), so the
    marginal entry power is preserved.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    noise = complex_gaussian(rng, *h_prev.shape)
    return rho * h_prev + np.sqrt(1.0 - rho * rho) * noise
