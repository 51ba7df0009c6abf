"""Pilot-based channel estimation and DOA estimation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from fdmimo.impairments import check_dbm


class NoSignalError(RuntimeError):
    """Every swept beam measured zero power; nothing to estimate."""


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


@dataclass(frozen=True, eq=False)
class Pilots:
    """A pilot matrix P (streams x pilot length), power scaling included,
    checked once: its rows are orthogonal with equal energy, P P^H = energy I.

    Build it once for a matrix that many estimates share.
    """

    matrix: np.ndarray
    energy: float = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.matrix, dtype=complex)
        gram = p @ p.conj().T
        energy = float(np.real(gram[0, 0]))
        if not np.allclose(gram, energy * np.eye(p.shape[0]), atol=1e-8 * max(energy, 1.0)):
            raise ValueError("pilot rows must be orthogonal with equal energy")
        object.__setattr__(self, "matrix", p)
        object.__setattr__(self, "energy", energy)


def orthogonal_pilots(num_streams: int, num_pilots: int) -> np.ndarray:
    """Unit-amplitude orthogonal pilot matrix (streams x pilots).

    Rows are distinct DFT tones of length `num_pilots`, so P P^H equals
    num_pilots * I exactly and each row has squared norm num_pilots.
    """
    if num_pilots < num_streams:
        raise ValueError("need at least one pilot symbol per stream")
    s = np.arange(num_streams)[:, None]
    t = np.arange(num_pilots)[None, :]
    return np.exp(2j * np.pi * s * t / num_pilots)


def estimation_error_variance(
    prior_var: float, pilot_energy: float, noise_var: float
) -> float:
    """Closed-form per-entry LMMSE error variance.

    `pilot_energy` is the squared norm of one pilot row including any
    power scaling applied to it.
    """
    if prior_var <= 0 or noise_var <= 0 or pilot_energy <= 0:
        raise ValueError("variances and pilot energy must be positive")
    return prior_var * noise_var / (prior_var * pilot_energy + noise_var)


def mmse_estimate(
    y: np.ndarray,
    pilots: Pilots | np.ndarray,
    noise_var: float,
    prior_var: float,
) -> np.ndarray:
    """Per-entry LMMSE channel estimate from y = H P + W.

    Parameters
    ----------
    y : numpy.ndarray
        Received samples, receive dimension x pilot length.
    pilots : Pilots or numpy.ndarray
        Orthogonal pilot matrix (streams x pilot length), power scaling
        included; rows must satisfy P P^H = L_p I.  A bare matrix is
        checked on every call, a `Pilots` value once when it was built.
    noise_var : float
        Per-entry receiver noise power in watts.
    prior_var : float
        Per-entry channel prior variance (link gain included).

    Returns
    -------
    numpy.ndarray
        Estimate of shape (receive dim, streams); its per-entry error
        variance is `estimation_error_variance(prior_var, energy, noise_var)`.
    """
    if not isinstance(pilots, Pilots):
        pilots = Pilots(pilots)
    y = np.asarray(y, dtype=complex)
    p = pilots.matrix
    if y.shape[1] != p.shape[1]:
        raise ValueError("pilot length mismatch between y and pilots")
    return mmse_shrink(pilots, noise_var, prior_var) * (y @ p.conj().T)


def mmse_shrink(pilots: Pilots, noise_var: float, prior_var: float) -> float:
    """The LMMSE gain that `mmse_estimate` applies to the correlation y P^H.

    A caller that sounds the same channel at several noise levels can
    correlate once and apply this gain per level.
    """
    return prior_var / (prior_var * pilots.energy + noise_var)


def doa_estimate(
    snapshots: np.ndarray,
    sweep_vectors: np.ndarray,
    sweep_angles: Sequence[float],
) -> float:
    """On-grid direction estimate by exhaustive beam sweep.

    Parameters
    ----------
    snapshots : numpy.ndarray
        Receive-chain samples (chains x time) that every beam is scored on.
    sweep_vectors : numpy.ndarray
        One candidate combining vector per row (beams x chains).
    sweep_angles : sequence of float
        Pointing angle of each candidate beam, radians.

    Returns
    -------
    float
        Angle of the strongest beam; ties resolve to the lowest index.
    """
    sweep_vectors = np.asarray(sweep_vectors, dtype=complex)
    if len(sweep_angles) != sweep_vectors.shape[0]:
        raise ValueError("need one angle per sweep vector")
    y = np.asarray(snapshots, dtype=complex)
    powers = np.mean(np.abs(sweep_vectors.conj() @ y) ** 2, axis=1)
    if np.all(powers == 0):
        raise NoSignalError("all swept beams measured zero power")
    return float(sweep_angles[int(np.argmax(powers))])
