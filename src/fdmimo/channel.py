"""Fading channel generators and first-order channel aging.

All generators return dense complex matrices with unit average entry power;
link gains (pathloss, antenna isolation) are applied by the caller.  The
aging correlation rho comes with the config's `AgingParams`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

    Each realization draws the per-path departure and arrival angles
    uniformly in [-pi/2, pi/2].
    """

    num_paths: int
    rx_size: int
    tx_size: int

    def __post_init__(self):
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")
        if self.rx_size < 1 or self.tx_size < 1:
            raise ValueError("array sizes must be positive")


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Circularly symmetric complex Gaussian matrix with unit entry variance."""
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    # Each part times 1/sqrt(2) rounds as (re + 1j im) / sqrt(2) does: numpy
    # divides by a real number as it multiplies by its reciprocal.
    z = np.empty((rows, cols), dtype=complex)
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(re, scale, out=z.real)
    np.multiply(im, scale, out=z.imag)
    return z


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
    aod = rng.uniform(-np.pi / 2, np.pi / 2, p)
    aoa = rng.uniform(-np.pi / 2, np.pi / 2, p)
    gains = (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / np.sqrt(2.0)
    h = np.zeros((params.rx_size, params.tx_size), dtype=complex)
    for alpha, th_rx, th_tx in zip(gains, aoa, aod):
        a_rx = steering_vector(params.rx_size, th_rx)
        a_tx = steering_vector(params.tx_size, th_tx)
        h += alpha * np.outer(a_rx, a_tx.conj())
    return np.sqrt(params.rx_size * params.tx_size / p) * h


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
