"""Analog multi-tap and nonlinear digital self-interference cancellation.

The analog canceller taps a subset of (receive chain, transmit chain)
positions of the effective self-interference channel seen between the RF
chains.  Each tap subtracts gain * x_n from receive chain m, where x_n is
the clean transmit baseband reference, so with every position tapped the
linear self-interference vanishes and only transmit-impairment distortion
survives.  The digital stage then fits that survivor with a least-squares
model over the basis {x, conj(x), x |x|^2} per transmit chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from fdmimo.impairments import dbm_to_watt


class InfeasibleProjectionError(RuntimeError):
    """No transmit direction satisfies the residual budget; shed a stream."""


class RegressorRankError(np.linalg.LinAlgError):
    """Training data cannot identify the digital canceller coefficients."""


@dataclass(frozen=True)
class SaturationSpec:
    """Receive chain input limit before the LNA/ADC stage clips."""

    max_input_dbm: float = -20.0

    @property
    def max_input_w(self) -> float:
        return dbm_to_watt(self.max_input_dbm)


@dataclass
class CancellerState:
    """Configured analog canceller: tap support and tap gains.

    `support` lists (rx chain, tx chain) tap positions; `gains` holds the
    complex tap weight per position.
    """

    support: List[Tuple[int, int]]
    gains: np.ndarray
    shape: Tuple[int, int]

    def matrix(self) -> np.ndarray:
        """Dense tap matrix C with gains on the support, zero elsewhere."""
        c = np.zeros(self.shape, dtype=complex)
        for (m, n), g in zip(self.support, self.gains):
            c[m, n] = g
        return c


def effective_si_channel(
    h_si: np.ndarray, f_tx: np.ndarray, f_rx: np.ndarray
) -> np.ndarray:
    """Self-interference channel seen between RF chains: F_rx^H H F_tx."""
    h_si = np.asarray(h_si)
    if h_si.shape != (f_rx.shape[0], f_tx.shape[0]):
        raise ValueError("h_si dimensions do not match the beamformers")
    return f_rx.conj().T @ h_si @ f_tx


def select_taps(h_eff: np.ndarray, num_taps: int) -> List[Tuple[int, int]]:
    """Positions of the `num_taps` largest-magnitude entries of h_eff.

    Ties resolve in row-major order.  Because a tap zeroes its own entry
    and nothing else, this greedy choice minimizes the residual Frobenius
    norm over all supports of the same size.
    """
    h_eff = np.asarray(h_eff)
    size = h_eff.size
    if not 0 <= num_taps <= size:
        raise ValueError("num_taps must lie in [0, h_eff.size]")
    mags = np.abs(h_eff).ravel()
    order = np.lexsort((np.arange(size), -mags))
    cols = h_eff.shape[1]
    return [(int(i) // cols, int(i) % cols) for i in order[:num_taps]]


def select_taps_by_row(h_eff: np.ndarray, num_taps: int) -> List[Tuple[int, int]]:
    """Tap layout that concentrates the budget on whole receive-chain rows.

    Rows are covered in decreasing row-norm order; any leftover budget
    taps the largest remaining entries.  Covering complete rows keeps the
    un-tapped residual low rank, which is what a transmit-side null-space
    projection needs to shed as few streams as possible.
    """
    h_eff = np.asarray(h_eff)
    rows, cols = h_eff.shape
    if not 0 <= num_taps <= h_eff.size:
        raise ValueError("num_taps must lie in [0, h_eff.size]")
    full_rows = num_taps // cols
    row_order = np.lexsort((np.arange(rows), -np.linalg.norm(h_eff, axis=1)))
    support = [(int(m), n) for m in row_order[:full_rows] for n in range(cols)]
    leftover = num_taps - full_rows * cols
    if leftover:
        rest = np.zeros_like(h_eff, dtype=float)
        rest[row_order[full_rows:], :] = np.abs(h_eff[row_order[full_rows:], :])
        order = np.lexsort((np.arange(h_eff.size), -rest.ravel()))
        support += [(int(i) // cols, int(i) % cols) for i in order[:leftover]]
    return support


def set_tap_gains(
    h_eff: np.ndarray, support: Sequence[Tuple[int, int]]
) -> CancellerState:
    """Match each tap gain to its effective-channel entry.

    The residual matrix h_eff - C is then exactly zero on the support.
    """
    h_eff = np.asarray(h_eff, dtype=complex)
    rows, cols = h_eff.shape
    for m, n in support:
        if not (0 <= m < rows and 0 <= n < cols):
            raise ValueError(f"tap position ({m}, {n}) outside the channel")
    if len(set(support)) != len(support):
        raise ValueError("duplicate tap positions")
    gains = np.array([h_eff[m, n] for m, n in support], dtype=complex)
    return CancellerState(list(support), gains, (rows, cols))


def residual_si_power(
    h_eff: np.ndarray, state: CancellerState, tx_cov: np.ndarray
) -> np.ndarray:
    """Per-chain linear residual power diag((H - C) Q (H - C)^H), watts."""
    r = np.asarray(h_eff, dtype=complex) - state.matrix()
    return np.real(np.einsum("ij,jk,ik->i", r, np.asarray(tx_cov), r.conj()))


def check_saturation(chain_power_w: np.ndarray, spec: SaturationSpec) -> np.ndarray:
    """Flag receive chains whose total input power strictly exceeds the limit."""
    return np.asarray(chain_power_w) > spec.max_input_w


def si_aware_precoder_projection(
    w: np.ndarray, h_eff: np.ndarray, canceller: CancellerState, mu: float
) -> np.ndarray:
    """Project precoder columns away from the dominant residual directions.

    Residual directions (right singular vectors of R = h_eff - C) are
    removed one at a time, strongest first, until ||R W||_F^2 <= mu; the
    result is renormalized to unit Frobenius norm.  The output never has a
    larger ||R W||_F than the input.  Raises InfeasibleProjectionError when
    the budget cannot be met before the precoder collapses, in which case
    the caller should reduce the stream count and retry.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    w = np.asarray(w, dtype=complex)
    r = np.asarray(h_eff, dtype=complex) - canceller.matrix()
    if np.linalg.norm(r @ w) ** 2 <= mu:
        return w
    _, svals, vh = np.linalg.svd(r)
    projected = w.copy()
    for i in range(len(svals)):
        if svals[i] == 0:
            break
        v = vh[i].conj()[:, None]
        projected = projected - v @ (v.conj().T @ projected)
        norm = np.linalg.norm(projected)
        if norm < 1e-12 * np.linalg.norm(w):
            raise InfeasibleProjectionError(
                "residual budget unreachable at this stream count"
            )
        candidate = projected / norm
        if np.linalg.norm(r @ candidate) ** 2 <= mu:
            return candidate
    raise InfeasibleProjectionError("residual budget unreachable at this stream count")


def _regressors(tx_baseband: np.ndarray) -> np.ndarray:
    x = np.asarray(tx_baseband, dtype=complex)
    return np.vstack([x, np.conj(x), x * np.abs(x) ** 2])


def train_digital_canceller(
    tx_baseband: np.ndarray,
    rx_residual: np.ndarray,
    residual_linear: np.ndarray,
) -> np.ndarray:
    """Least-squares fit of the post-analog residual on the nonlinear basis.

    Parameters
    ----------
    tx_baseband : numpy.ndarray
        Clean transmit samples, one chain per row, length >= 3 * chains.
    rx_residual : numpy.ndarray
        Post-analog receive samples, one receive chain per row.
    residual_linear : numpy.ndarray
        Known linear residual matrix (rx chains x tx chains) that seeds the
        linear block of the fit; the remaining error is what the
        least-squares stage has to explain.

    Returns
    -------
    numpy.ndarray
        Coefficients of shape (rx chains, 3 * tx chains) over the
        regressor blocks [x, conj(x), x |x|^2], jointly fit across all
        transmit chains.
    """
    x = np.asarray(tx_baseband, dtype=complex)
    y = np.asarray(rx_residual, dtype=complex)
    r = np.asarray(residual_linear, dtype=complex)
    n_tx, n_samp = x.shape
    if n_samp < 3 * n_tx:
        raise ValueError("need at least 3 * tx chains training samples")
    if y.shape[1] != n_samp:
        raise ValueError("tx and rx sample counts differ")
    if r.shape != (y.shape[0], n_tx):
        raise ValueError("residual_linear shape must be (rx chains, tx chains)")
    phi = _regressors(x)
    gram = phi @ phi.conj().T
    rank = np.linalg.matrix_rank(gram)
    if rank < 3 * n_tx:
        raise RegressorRankError(f"regressor rank {rank} < {3 * n_tx}")
    # Seeding with the known linear part and fitting the leftover is
    # algebraically identical to a direct fit but keeps the target small.
    centered = y - r @ x
    fit, *_ = np.linalg.lstsq(phi.conj().T, centered.conj().T, rcond=None)
    coeffs = fit.conj().T
    coeffs[:, :n_tx] += r
    return coeffs


def apply_digital_canceller(
    coeffs: np.ndarray, tx_baseband: np.ndarray, rx_samples: np.ndarray
) -> np.ndarray:
    """Subtract the reconstructed nonlinear residual from receive samples."""
    coeffs = np.asarray(coeffs, dtype=complex)
    x = np.asarray(tx_baseband, dtype=complex)
    y = np.asarray(rx_samples, dtype=complex)
    if coeffs.shape != (y.shape[0], 3 * x.shape[0]):
        raise ValueError("coefficient shape must be (rx chains, 3 * tx chains)")
    return y - coeffs @ _regressors(x)
