"""Codebooks, analog assembly and digital precoder/combiner properties."""

import numpy as np
import pytest

from fdmimo.beamforming import (
    SingularChannelError,
    assemble_analog_bf,
    beam_select_doa,
    dft_beam_angles,
    dft_codebook,
    eigen_precoder,
    mmse_combiner,
    select_subarray_beams,
    zf_precoder,
)
from fdmimo.config import ArchitectureConfig


def test_architecture_validation():
    cfg = ArchitectureConfig(n_tx=64, n_rx=32, n_tx_rf=4, n_rx_rf=2)
    assert cfg.tx_subarray == 16
    assert cfg.rx_subarray == 16
    with pytest.raises(ValueError):
        ArchitectureConfig(n_tx=8, n_rx=8, n_tx_rf=3, n_rx_rf=2)  # uneven split
    with pytest.raises(ValueError):
        ArchitectureConfig(n_tx=4, n_rx=4, n_tx_rf=8, n_rx_rf=2)
    with pytest.raises(ValueError):
        ArchitectureConfig(n_tx=4, n_rx=4, n_tx_rf=2, n_rx_rf=2, num_taps=5)
    with pytest.raises(ValueError):
        ArchitectureConfig(n_tx=4, n_rx=4, n_tx_rf=2, n_rx_rf=2, phase_bits=0)


def _snap_shift(n, phase_bits):
    """Codebook phase minus the ideal DFT phase, wrapped to (-pi, pi]."""
    k = np.arange(n)
    book = dft_codebook(n, phase_bits)
    ideal = 2.0 * np.pi * np.outer(k, k) / n
    return np.angle(book * np.sqrt(n) * np.exp(-1j * ideal)), np.outer(k, k)


def test_dft_codebook_snaps_phases_to_grid():
    # Two-bit shifters (grid step pi/2) on the length-8 DFT phases k m pi/4:
    # even k m lies on the grid, odd k m is an exact tie between two points.
    step = np.pi / 2.0
    book = dft_codebook(8, 2)
    assert np.allclose(np.abs(book), 1.0 / np.sqrt(8))
    assert np.allclose(np.exp(4j * np.angle(book)), 1.0, atol=1e-9)  # on the grid
    moved, km = _snap_shift(8, 2)
    assert np.all(np.abs(moved) <= step / 2 + 1e-9)  # at most half a step
    assert np.allclose(moved[km % 2 == 0], 0.0, atol=1e-9)  # grid points stay
    assert np.allclose(moved[km % 2 == 1], -step / 2, atol=1e-9)  # ties go down
    # Length 16: k m pi/8 with k m odd is no tie and snaps to the nearest
    # point, down from pi/8 and up from 3 pi/8 (mod pi/2).
    moved, km = _snap_shift(16, 2)
    assert np.allclose(moved[km % 4 == 1], -step / 4, atol=1e-9)
    assert np.allclose(moved[km % 4 == 3], step / 4, atol=1e-9)
    with pytest.raises(ValueError):
        dft_codebook(8, 0)


def test_dft_codebook_is_exact_on_grid():
    # with 3 bits the length-8 DFT phases (multiples of pi/4) are exact
    book = dft_codebook(8, 3)
    k = np.arange(8)
    ideal = np.exp(2j * np.pi * np.outer(k, k) / 8) / np.sqrt(8)
    assert np.allclose(book, ideal, atol=1e-12)
    assert np.allclose(book @ book.conj().T, np.eye(8), atol=1e-12)
    assert np.allclose(np.linalg.norm(book, axis=1), 1.0)


def test_dft_codebook_coarse_bits():
    book = dft_codebook(8, 1)
    # one-bit shifters leave only the phases 0 and pi
    assert np.allclose(np.abs(book.imag), 0.0, atol=1e-12)
    assert np.allclose(np.abs(book), 1.0 / np.sqrt(8))


def test_dft_beam_angles_frozen():
    assert np.allclose(np.sin(dft_beam_angles(4)), [0.0, -0.5, -1.0, 0.5])
    sines = np.sin(dft_beam_angles(16))
    assert len(np.unique(np.round(sines, 9))) == 16
    assert np.all(sines >= -1.0) and np.all(sines < 1.0)
    # uniform spacing in sine space
    assert np.allclose(np.diff(np.sort(sines)), 2.0 / 16.0)


def test_beam_select_doa_inverts_angle_grid():
    for n in (16, 32):
        book = dft_codebook(n, 3)
        angles = dft_beam_angles(n)
        for k in range(n):
            assert beam_select_doa(angles[k], book) == k


def test_assemble_analog_bf_blocks():
    book = dft_codebook(4, 3)
    f = assemble_analog_bf([1, 3], book)
    assert f.shape == (8, 2)
    assert np.allclose(f[0:4, 0], book[1]) and np.allclose(f[4:8, 1], book[3])
    assert np.allclose(f[4:8, 0], 0.0) and np.allclose(f[0:4, 1], 0.0)
    assert np.allclose(np.linalg.norm(f, axis=0), 1.0)
    with pytest.raises(ValueError):
        assemble_analog_bf([1, 7], book)  # codebook has 4 entries
    with pytest.raises(ValueError):
        assemble_analog_bf([-1, 0], book)


def test_assemble_analog_bf_digital_identity():
    # One antenna per chain: the one-entry codebook is [1], so the analog
    # stage of a fully digital array is exactly the identity.
    for phase_bits in (1, 2, 3, 4):
        book = dft_codebook(1, phase_bits)
        for n in (4, 3):
            assert np.array_equal(assemble_analog_bf([0] * n, book), np.eye(n))


def test_select_subarray_beams_planted():
    rng = np.random.default_rng(1)
    book = dft_codebook(4, 3)  # orthogonal rows make the search exact
    h = np.zeros((2, 8), dtype=complex)
    h[:, 0:4] = np.outer(rng.standard_normal(2) + 1j * rng.standard_normal(2), book[2].conj())
    h[:, 4:8] = np.outer(rng.standard_normal(2) + 1j * rng.standard_normal(2), book[1].conj())
    assert select_subarray_beams(h, book, 2, "tx") == [2, 1]
    g = np.zeros((8, 3), dtype=complex)
    g[0:4, :] = np.outer(book[3], rng.standard_normal(3) + 1j * rng.standard_normal(3))
    g[4:8, :] = np.outer(book[0], rng.standard_normal(3) + 1j * rng.standard_normal(3))
    assert select_subarray_beams(g, book, 2, "rx") == [3, 0]
    with pytest.raises(ValueError):
        select_subarray_beams(h, book, 2, "sideways")


def test_zf_precoder_diagonalizes():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    w = zf_precoder(h)
    hw = h @ w
    assert np.allclose(hw, hw[0, 0] * np.eye(3), atol=1e-10)
    assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)


def test_zf_precoder_singular_cases():
    with pytest.raises(ValueError):
        zf_precoder(np.ones((4, 2)))  # more streams than chains
    h = np.ones((2, 4), dtype=complex)  # repeated rows
    with pytest.raises(SingularChannelError):
        zf_precoder(h)


def test_mmse_combiner_scalar_closed_form():
    # w = h / (|h|^2 + noise) = 2 / 5
    w = mmse_combiner(np.array([[2.0 + 0j]]), np.array([[1.0 + 0j]]))
    assert w[0, 0] == pytest.approx(0.4, rel=1e-12)


def test_mmse_combiner_minimizes_mse():
    rng = np.random.default_rng(4)
    h = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    a = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    r = 0.5 * np.eye(4) + a @ a.conj().T

    def mse(w):
        # E ||s - W^H y||^2 for unit-power streams, y = H s + n
        m = (
            np.eye(2)
            - w.conj().T @ h
            - h.conj().T @ w
            + w.conj().T @ (h @ h.conj().T + r) @ w
        )
        return float(np.real(np.trace(m)))

    w0 = mmse_combiner(h, r)
    base = mse(w0)
    for _ in range(10):
        d = 0.01 * (rng.standard_normal(w0.shape) + 1j * rng.standard_normal(w0.shape))
        assert mse(w0 + d) >= base - 1e-12


def test_mmse_combiner_rejects_indefinite_noise():
    h = np.ones((2, 1), dtype=complex)
    bad = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    with pytest.raises(SingularChannelError):
        mmse_combiner(h, bad)


def test_eigen_precoder_dominant_directions():
    h = np.diag([3.0, 2.0, 1.0]).astype(complex)
    w = eigen_precoder(h, 2)
    assert np.allclose(np.abs(w), [[np.sqrt(0.5), 0.0], [0.0, np.sqrt(0.5)], [0.0, 0.0]], atol=1e-12)
    assert np.allclose(w.conj().T @ w, np.eye(2) / 2, atol=1e-12)
    assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        eigen_precoder(h, 0)
    with pytest.raises(ValueError):
        eigen_precoder(h, 4)
