"""Fading channel generators and first-order channel aging.

All generators return dense complex matrices with unit average entry power;
link gains (pathloss, antenna isolation) are applied by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class AgingParams:
    """Doppler spread and slot duration defining the slot-to-slot correlation."""

    doppler_hz: float
    slot_s: float
    rho: float = field(init=False)  # one Bessel evaluation per config

    def __post_init__(self):
        object.__setattr__(self, "rho", doppler_correlation(self.doppler_hz, self.slot_s))


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
    aod = rng.uniform(-np.pi / 2, np.pi / 2, p)
    aoa = rng.uniform(-np.pi / 2, np.pi / 2, p)
    gains = (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / np.sqrt(2.0)
    h = np.zeros((params.rx_size, params.tx_size), dtype=complex)
    for alpha, th_rx, th_tx in zip(gains, aoa, aod):
        a_rx = steering_vector(params.rx_size, th_rx)
        a_tx = steering_vector(params.tx_size, th_tx)
        h += alpha * np.outer(a_rx, a_tx.conj())
    return np.sqrt(params.rx_size * params.tx_size / p) * h


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
