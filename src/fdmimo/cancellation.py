"""Analog multi-tap and nonlinear digital self-interference cancellation.

The analog canceller taps a subset of (receive chain, transmit chain)
positions of the effective self-interference channel seen between the RF
chains.  Each tap subtracts gain * x_n from receive chain m, where x_n is
the clean transmit baseband reference, so with every position tapped the
linear self-interference vanishes and only transmit-impairment distortion
survives.  The digital stage then fits that survivor with a least-squares
model over the basis {x, conj(x), x |x|^2} per transmit chain.

A receive slot takes the digital stage through `cancel_slot`, which fits
and applies on one burst and returns only the cleaned rows.  One rule,
`_gram_root`, routes the burst between two solvers:

  projected   every regressor row has power, and the Gram of the
              regressors, scaled to unit diagonal, has a Cholesky factor
              L with 3n ||L^-1||_F^2 <= 1e5: the least-squares residual is
              unique and is computed as the target minus its projection
              onto the regressors' row space, member by member
  otherwise   the minimum-norm `lstsq` fit, subtracted on all rows at once

A dependent burst (fewer streams than chains) has a singular Gram, so its
scaled Gram has no factor with a bounded inverse and takes the `lstsq`
fit: the rule covers the two rank tests of `train_digital_canceller`,
which stays as the checked reference.  Both solvers work on arrays built
once per slot, which keeps a slot's heap peak small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


class InfeasibleProjectionError(RuntimeError):
    """No transmit direction satisfies the residual budget; shed a stream."""


class RegressorRankError(np.linalg.LinAlgError):
    """Training data cannot identify the digital canceller coefficients."""


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


def check_saturation(chain_power_w: np.ndarray, limit_w: float) -> np.ndarray:
    """Flag receive chains whose total input power strictly exceeds
    `limit_w`, the input the LNA/ADC stage takes before it clips."""
    return np.asarray(chain_power_w) > limit_w


def si_aware_precoder_projection(
    w: np.ndarray,
    residual: np.ndarray,
    mu: float,
    svd: Tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Project precoder columns away from the dominant residual directions.

    `residual` is R = h_eff - C, the SI channel the analog canceller leaves.
    Residual directions (right singular vectors of R) are removed one at a
    time, strongest first, until ||R W||_F^2 <= mu; the result is
    renormalized to unit Frobenius norm.  The output never has a larger
    ||R W||_F than the input.  Raises InfeasibleProjectionError when the
    budget cannot be met before the precoder collapses, in which case the
    caller should reduce the stream count and retry.

    `svd` is the (singular values, Vh) that `np.linalg.svd` returns for R;
    the caller computes it once per R and passes it to every projection
    against that R.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    w = np.asarray(w, dtype=complex)
    r = np.asarray(residual, dtype=complex)
    if np.linalg.norm(r @ w) ** 2 <= mu:
        return w
    svals, vh = svd
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


def _fit(phi: np.ndarray, x: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares coefficients of rows `y` on regressors
    `phi` of burst `x`, seeded with the linear residual `r`.

    With fewer streams than chains the regressors are dependent; the
    minimum-norm fit still cancels everything in the transmitted
    subspace, which is all that was radiated.  `phi` is conjugated in
    place for the solver and conjugated back after it, which is exact, so
    the caller gets its regressors back unchanged.
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
    tx_baseband: np.ndarray, rx_residual: np.ndarray, residual_linear: np.ndarray
) -> np.ndarray:
    """Least-squares fit of the post-analog residual on the nonlinear basis.

    Checks the inputs and that the regressors identify every coefficient
    (else RegressorRankError, raised before the regressors are built when
    the burst's own chains are dependent), then runs the least-squares fit.

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
    # The burst is the regressors' first block: dependent chains (fewer
    # streams than chains) fail the full check too, so reject them before
    # building the 3n regressors.
    rank = np.linalg.matrix_rank(x @ x.conj().T)
    if rank < n_tx:
        raise RegressorRankError(f"transmit burst rank {rank} < {n_tx} chains")
    phi = _regressors(x)
    rank = np.linalg.matrix_rank(phi @ phi.conj().T)
    if rank < 3 * n_tx:
        raise RegressorRankError(f"regressor rank {rank} < {3 * n_tx}")
    return _fit(phi, x, y, r)


def apply_digital_canceller(
    coeffs: np.ndarray, tx_baseband: np.ndarray, rx_samples: np.ndarray
) -> np.ndarray:
    """Subtract the reconstructed nonlinear residual from receive samples."""
    coeffs = np.asarray(coeffs, dtype=complex)
    x = np.asarray(tx_baseband, dtype=complex)
    y = np.asarray(rx_samples, dtype=complex)
    if coeffs.shape != (y.shape[0], 3 * x.shape[0]):
        raise ValueError("coefficient shape must be (rx chains, 3 * tx chains)")
    z = coeffs @ _regressors(x)
    return np.subtract(y, z, out=z)


# Largest condition number of the unit-diagonal Gram D G D for which
# `cancel_slot` projects.  The projection's error relative to the receive
# rows grows as eps times that number: in the property tests it stayed
# below 5e-11 under this limit, far inside the 1e-9 rate tolerance, and
# reached 1.4e-9 beyond it.  A scenario's bursts of hundreds of Gaussian
# symbols measure about 350.
_GRAM_CONDITION_LIMIT = 1e5


def _gram_root(phi: np.ndarray) -> Optional[np.ndarray]:
    """K = L^-1 D, with L L^H = D G D and D = diag(G)^-1/2, so that
    G^-1 = K^H K for the Gram G of the regressors `phi`; None when
    `cancel_slot` must not project with it.

    This is the slot canceller's one routing rule.  K is returned only
    when every row of `phi` has power (a silent chain leaves D undefined),
    D G D has a Cholesky factor, and 3n ||L^-1||_F^2, which bounds the
    condition number of D G D from above, is within the limit; the test
    is written so that a NaN bound fails it.

    The rule needs no rank test of its own.  The rank tests of
    `train_digital_canceller` reject a dependent burst, such as one with
    fewer streams than chains.  Its G is singular, and so is D G D, which
    rounding leaves either without a Cholesky factor or with one whose
    inverse is of the order of 1/eps, far past the limit.  The scaling
    matters because the x |x|^2 block grows as the burst amplitude cubed,
    and G squares the regressors' condition number.
    """
    gram = phi @ phi.conj().T
    power = gram.diagonal().real
    if not np.all(power > 0):
        return None
    scale = 1.0 / np.sqrt(power)
    try:
        chol = np.linalg.cholesky(gram * np.outer(scale, scale))
    except np.linalg.LinAlgError:
        return None
    root = np.linalg.solve(chol, np.diag(scale))
    bound = len(scale) * np.linalg.norm(root / scale) ** 2
    if not bound <= _GRAM_CONDITION_LIMIT:
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

    `_gram_root`'s one rule routes the burst; it rejects every burst that
    the rank tests of `train_digital_canceller` reject.  When it returns
    K, the least-squares residual is unique: with t = y - r x the seeded
    target and G = Phi Phi^H the Gram of the regressors Phi, it is
    z = t - (t Phi^H) G^-1 Phi, with G^-1 = K^H K.  The products run
    member by member on the stack, so a member's rows come out the same
    whatever else shares the call.  Otherwise (a silent chain, fewer
    streams than chains, or a scaled Gram too ill-conditioned for the
    projection to keep its accuracy) every member's rows take one
    minimum-norm `lstsq` fit (`_fit`), whose reconstruction is subtracted
    from them: what `apply_digital_canceller` does with the fit.
    """
    x = np.asarray(tx_baseband, dtype=complex)
    y = np.asarray(rx_rows, dtype=complex)
    r = np.asarray(residual_linear, dtype=complex)
    phi = _regressors(x)
    root = _gram_root(phi)
    if root is None:
        rows = y.reshape(-1, y.shape[-1])
        seed = np.broadcast_to(r, y.shape[:-1] + r.shape[-1:]).reshape(-1, x.shape[0])
        z = _fit(phi, x, rows, seed) @ phi
        return np.subtract(rows, z, out=z).reshape(y.shape)
    gram_inv = root.conj().T @ root
    t = y - r @ x
    np.conj(phi, out=phi)  # conj(Phi).T is Phi^H; conjugated back below, exactly
    coeffs = (t @ phi.T) @ gram_inv
    np.conj(phi, out=phi)
    t -= coeffs @ phi
    return t
