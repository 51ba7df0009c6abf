"""Analog and digital beamforming: quantized-phase codebooks, precoders.

The analog side models partially connected hybrid arrays: each RF chain
drives one contiguous sub-array through phase shifters of limited
resolution, so analog beamforming matrices are block diagonal with
constant-modulus nonzero entries.  The digital side provides the standard
zero-forcing, MMSE and eigenmode designs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class SingularChannelError(np.linalg.LinAlgError):
    """Channel matrix too ill conditioned for the requested design."""


def _snap_phases(phases: np.ndarray, phase_bits: int) -> np.ndarray:
    """Nearest point of the 2^bits phase grid, ties toward the smaller phase."""
    if phase_bits < 1:
        raise ValueError("phase_bits must be >= 1")
    step = 2.0 * np.pi / (2**phase_bits)
    # ceil(x - 0.5) rounds to nearest with exact halves going down
    return step * np.ceil(np.asarray(phases) / step - 0.5)


def dft_codebook(n: int, phase_bits: int) -> np.ndarray:
    """DFT beam codebook for an n-element sub-array, one codeword per row.

    Codeword k has element m equal to exp(j q(2 pi k m / n)) / sqrt(n)
    where q() snaps to the phase-shifter grid, so every codeword is
    realizable by the hardware.
    """
    if n < 1:
        raise ValueError("array size must be positive")
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    phases = _snap_phases(2.0 * np.pi * k * m / n, phase_bits)
    return np.exp(1j * phases) / np.sqrt(n)


def dft_beam_angles(n: int) -> np.ndarray:
    """Pointing angles (radians) of the n DFT codewords, codeword order."""
    k = np.arange(n)
    s = np.mod(-2.0 * k / n + 1.0, 2.0) - 1.0
    return np.arcsin(s)


def assemble_analog_bf(beam_indices: Sequence[int], codebook: np.ndarray) -> np.ndarray:
    """Build the block-diagonal analog matrix from per-sub-array codewords.

    Chain j drives the j-th sub-array with row `beam_indices[j]` of
    `codebook`, the codebook the beams were chosen from.  Every nonzero
    entry has modulus 1/sqrt(sub-array size), so each column is unit
    norm.  With one antenna per chain the codebook is the single codeword
    [1], and the matrix is the identity.
    """
    n_rf, sub = len(beam_indices), codebook.shape[1]
    f = np.zeros((n_rf * sub, n_rf), dtype=complex)
    for j, idx in enumerate(beam_indices):
        if not 0 <= idx < len(codebook):
            raise ValueError("beam index outside codebook")
        f[j * sub : (j + 1) * sub, j] = codebook[idx]
    return f


def select_subarray_beams(h: np.ndarray, codebook: np.ndarray, num_rf: int, side: str):
    """Exhaustive per-sub-array codeword search maximizing captured channel power.

    For the transmit side, sub-array j sees the channel columns of its
    antennas and scores codeword g by ||H[:, block] g||; the receive side
    scores f by ||f^H H[block, :]||.  Ties resolve to the lowest codeword
    index.
    """
    n_beams, sub = codebook.shape
    indices = []
    for j in range(num_rf):
        blk = slice(j * sub, (j + 1) * sub)
        if side == "tx":
            scores = np.linalg.norm(h[:, blk] @ codebook.T, axis=0)
        elif side == "rx":
            scores = np.linalg.norm(codebook.conj() @ h[blk, :], axis=1)
        else:
            raise ValueError("side must be 'tx' or 'rx'")
        indices.append(int(np.argmax(scores)))
    return indices


def beam_select_doa(theta: float, codebook: np.ndarray) -> int:
    """Codeword best aligned with a departure angle, lowest index on ties.

    The score is |sum_m a_m(theta) c_m| with a the ULA phase progression,
    matching how a steered channel row couples into a precoding codeword.
    """
    sub = codebook.shape[1]
    a = np.exp(1j * np.pi * np.arange(sub) * np.sin(theta))
    return int(np.argmax(np.abs(codebook @ a)))


def zf_precoder(h: np.ndarray) -> np.ndarray:
    """Zero-forcing precoder for a users x chains channel.

    Returns W = H^H (H H^H)^-1 = V diag(1/s) U^H, from one SVD of H,
    normalized to unit Frobenius norm, so H W is diagonal.  A Gram matrix
    H H^H of condition (s_max / s_min)^2 above 1e12 is singular.
    """
    h = np.asarray(h, dtype=complex)
    users, chains = h.shape
    if users > chains:
        raise ValueError("more streams than transmit chains")
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    # (s_max / s_min)^2 > 1e12, written without a division: a zero s_min
    # raises here, and no ratio can overflow.
    if not (s[-1] > 0 and s[0] <= 1e6 * s[-1]):
        raise SingularChannelError(f"channel singular values {s[0]:.3e} to {s[-1]:.3e}")
    w = (vh.conj().T / s) @ u.conj().T
    return w / np.linalg.norm(w)


def mmse_combiner(h: np.ndarray, noise_cov: np.ndarray) -> np.ndarray:
    """Linear MMSE receive combiner for chains x streams channel h.

    `noise_cov` is the covariance of noise plus residual interference at
    the receive chains and must be Hermitian positive definite.  Leading
    axes stack independent problems; each combiner of the stack equals the
    2-D call on its own inputs, bit for bit.
    """
    h = np.asarray(h, dtype=complex)
    r = np.asarray(noise_cov, dtype=complex)
    try:
        np.linalg.cholesky(0.5 * (r + r.conj().swapaxes(-1, -2)))
    except np.linalg.LinAlgError as exc:
        raise SingularChannelError("noise covariance not positive definite") from exc
    rinv_h = np.linalg.solve(r, h)
    inner = np.eye(h.shape[-1], dtype=complex) + h.conj().swapaxes(-1, -2) @ rinv_h
    return rinv_h @ np.linalg.inv(inner)


def eigen_precoder(h: np.ndarray, num_streams: int) -> np.ndarray:
    """Equal-power precoder on the dominant right singular vectors of h.

    The result has orthonormal columns scaled by 1/sqrt(num_streams), so
    its squared Frobenius norm is one.
    """
    h = np.asarray(h, dtype=complex)
    if not 1 <= num_streams <= min(h.shape):
        raise ValueError("num_streams must lie in [1, min(h.shape)]")
    _, _, vh = np.linalg.svd(h)
    return vh[:num_streams].conj().T / np.sqrt(num_streams)
