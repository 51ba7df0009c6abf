"""Analog multi-tap and nonlinear digital self-interference cancellation.

The analog canceller taps a subset of (receive chain, transmit chain)
positions of the effective self-interference channel seen between the RF
chains.  Each tap subtracts gain * x_n from receive chain m, where x_n is
the clean transmit baseband reference, so with every position tapped the
linear self-interference vanishes and only transmit-impairment distortion
survives.  The digital stage then fits that survivor with a least-squares
model over the basis {x, conj(x), x |x|^2} per transmit chain.

A receive slot takes the digital stage through `cancel_slot`, which fits
and applies on one burst and returns only the cleaned rows.  It has two
solvers, chosen by the two rank tests of `train_digital_canceller`:

  full rank   the least-squares residual is unique, so it is computed as
              the target minus its projection onto the regressors' row
              space, from a Cholesky factor of their Gram matrix (which
              the second rank test has already built), member by member
  otherwise   (or when that Gram is too ill-conditioned to project
              accurately) the minimum-norm fit of `fit_digital_canceller`
              (an SVD-based `lstsq`) and `apply_digital_canceller`, on all
              rows at once

Both work on arrays built once per slot, which keeps a slot's heap peak
small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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
    w: np.ndarray,
    residual: np.ndarray,
    mu: float,
    svd: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Project precoder columns away from the dominant residual directions.

    `residual` is R = h_eff - C, the SI channel the analog canceller leaves.
    Residual directions (right singular vectors of R) are removed one at a
    time, strongest first, until ||R W||_F^2 <= mu; the result is
    renormalized to unit Frobenius norm.  The output never has a larger
    ||R W||_F than the input.  Raises InfeasibleProjectionError when the
    budget cannot be met before the precoder collapses, in which case the
    caller should reduce the stream count and retry.

    `svd`, when given, is the (singular values, Vh) that `np.linalg.svd`
    returns for R, for a caller that projects against one R many times;
    it is computed here otherwise, and only when `w` misses the budget.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    w = np.asarray(w, dtype=complex)
    r = np.asarray(residual, dtype=complex)
    if np.linalg.norm(r @ w) ** 2 <= mu:
        return w
    svals, vh = np.linalg.svd(r)[1:] if svd is None else svd
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
    """[x; conj(x); x |x|^2], written block by block into one new array."""
    x = np.asarray(tx_baseband, dtype=complex)
    n = x.shape[0]
    phi = np.empty((3 * n, x.shape[1]), dtype=complex)
    phi[:n] = x
    np.conj(x, out=phi[n : 2 * n])
    mag2 = np.abs(x)
    mag2 **= 2
    np.multiply(x, mag2, out=phi[2 * n :])
    return phi


def fit_digital_canceller(
    tx_baseband: np.ndarray,
    rx_residual: np.ndarray,
    residual_linear: np.ndarray,
    regressors: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Minimum-norm least-squares fit of `train_digital_canceller`, unchecked.

    With fewer streams than chains the regressors are dependent; the
    minimum-norm fit still cancels everything in the transmitted
    subspace, which is all that was radiated.  `regressors` as in
    `train_digital_canceller`.
    """
    x = np.asarray(tx_baseband, dtype=complex)
    y = np.asarray(rx_residual, dtype=complex)
    r = np.asarray(residual_linear, dtype=complex)
    return _fit(_regressors(x) if regressors is None else regressors, x, y, r)


def _fit(phi: np.ndarray, x: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The fit behind both entry points, on regressors `phi` built once.

    `phi` is conjugated in place for the solver and conjugated back after
    it, which is exact, so the caller gets its regressors back unchanged.
    """
    # Seeding with the known linear part and fitting the leftover is
    # algebraically identical to a direct fit but keeps the target small.
    target = r @ x
    np.subtract(y, target, out=target)
    np.conj(target, out=target)
    np.conj(phi, out=phi)
    fit, *_ = np.linalg.lstsq(phi.T, target.T, rcond=None)
    np.conj(phi, out=phi)
    coeffs = fit.conj().T
    coeffs[:, : x.shape[0]] += r
    return coeffs


def train_digital_canceller(
    tx_baseband: np.ndarray,
    rx_residual: np.ndarray,
    residual_linear: np.ndarray,
    regressors: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Least-squares fit of the post-analog residual on the nonlinear basis.

    Checks the inputs and that the regressors identify every coefficient
    (else RegressorRankError, raised before the regressors are built when
    the burst's own chains are dependent), then runs the fit of
    `fit_digital_canceller` on the regressors built for that check.

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
    regressors : numpy.ndarray, optional
        The blocks [x; conj(x); x |x|^2] of `tx_baseband`, built once by a
        caller that also applies the fit to the burst.  The fit conjugates
        them in place and back.  Built here if None.

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
    phi, _ = _identifying_gram(x, regressors)
    return _fit(phi, x, y, r)


def _identifying_gram(
    x: np.ndarray, phi: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """The regressors of burst `x` (built here if `phi` is None) and their
    Gram matrix, once both rank tests pass; RegressorRankError when the
    regressors cannot identify every coefficient."""
    n_tx = x.shape[0]
    # The burst is the regressors' first block: dependent chains (fewer
    # streams than chains) fail the full check too, so reject them before
    # building the 3n regressors.
    rank = np.linalg.matrix_rank(x @ x.conj().T)
    if rank < n_tx:
        raise RegressorRankError(f"transmit burst rank {rank} < {n_tx} chains")
    phi = _regressors(x) if phi is None else phi
    gram = phi @ phi.conj().T
    rank = np.linalg.matrix_rank(gram)
    if rank < 3 * n_tx:
        raise RegressorRankError(f"regressor rank {rank} < {3 * n_tx}")
    return phi, gram


def apply_digital_canceller(
    coeffs: np.ndarray, tx_baseband: np.ndarray, rx_samples: np.ndarray,
    regressors: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Subtract the reconstructed nonlinear residual from receive samples.

    `regressors`, when given, are the blocks [x; conj(x); x |x|^2] of
    `tx_baseband` that the fit was computed on.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    x = np.asarray(tx_baseband, dtype=complex)
    y = np.asarray(rx_samples, dtype=complex)
    if coeffs.shape != (y.shape[0], 3 * x.shape[0]):
        raise ValueError("coefficient shape must be (rx chains, 3 * tx chains)")
    z = coeffs @ (_regressors(x) if regressors is None else regressors)
    return np.subtract(y, z, out=z)


# Largest condition number of the unit-diagonal Gram D G D for which
# `cancel_slot` projects.  The projection's error relative to the receive
# rows grows as eps times that number: in the property tests it stayed
# below 5e-11 under this limit, far inside the 1e-9 rate tolerance, and
# reached 1.4e-9 beyond it.  A scenario's bursts of hundreds of Gaussian
# symbols measure about 350.
_GRAM_CONDITION_LIMIT = 1e5


def _gram_root(x: np.ndarray, phi: np.ndarray) -> Optional[np.ndarray]:
    """K = L^-1 D, with L L^H = D G D and D = diag(G)^-1/2, so that
    G^-1 = K^H K for the Gram G of the regressors `phi` of burst `x`.

    None unless both rank tests pass and D G D factors with a condition
    number (bounded above by 3n ||L^-1||_F^2) within the limit.  The scaling
    matters because the x |x|^2 block grows as the burst amplitude cubed,
    and G squares the regressors' condition number.
    """
    try:
        _, gram = _identifying_gram(x, phi)
        scale = 1.0 / np.sqrt(gram.diagonal().real)
        chol = np.linalg.cholesky(gram * np.outer(scale, scale))
    except np.linalg.LinAlgError:  # RegressorRankError among them
        return None
    root = np.linalg.solve(chol, np.diag(scale))
    if len(scale) * np.linalg.norm(root / scale) ** 2 > _GRAM_CONDITION_LIMIT:
        return None
    return root


def cancel_slot(
    tx_baseband: np.ndarray, rx_rows: np.ndarray, residual_linear: np.ndarray
) -> np.ndarray:
    """The digital canceller of one burst, fit on its receive rows and
    applied to them; returns the rows after cancellation.

    `rx_rows` is one slot (rx chains, samples) or a stack of slots
    (members, rx chains, samples), all of the clean burst `tx_baseband`.
    `residual_linear` seeds the linear block: one (rx chains, tx chains)
    matrix for every member, or one per member.  The result has the shape
    of `rx_rows`; no input is written.

    The two rank tests of `train_digital_canceller` pick the solver.  When
    they pass, the least-squares residual is unique: with t = y - r x the
    seeded target and G = Phi Phi^H the Gram of the regressors Phi that
    the second test built, it is z = t - (t Phi^H) G^-1 Phi, with G^-1
    from a Cholesky factor of G scaled to unit diagonal (`_gram_root`).
    The products run member by member on the stack, so a member's rows
    come out the same whatever else shares the call.  When a test fails
    (fewer streams than chains), or the scaled Gram is too ill-conditioned
    for the projection to keep its accuracy, every member's rows go through
    the minimum-norm `fit_digital_canceller` and `apply_digital_canceller`
    in one call.
    """
    x = np.asarray(tx_baseband, dtype=complex)
    y = np.asarray(rx_rows, dtype=complex)
    r = np.asarray(residual_linear, dtype=complex)
    phi = _regressors(x)
    root = _gram_root(x, phi)
    if root is None:
        rows = y.reshape(-1, y.shape[-1])
        seed = np.broadcast_to(r, y.shape[:-1] + r.shape[-1:]).reshape(-1, x.shape[0])
        coeffs = fit_digital_canceller(x, rows, seed, phi)
        return apply_digital_canceller(coeffs, x, rows, phi).reshape(y.shape)
    gram_inv = root.conj().T @ root
    t = y - r @ x
    np.conj(phi, out=phi)  # conj(Phi).T is Phi^H; conjugated back below, exactly
    coeffs = (t @ phi.T) @ gram_inv
    np.conj(phi, out=phi)
    t -= coeffs @ phi
    return t
