"""Pilot design, LMMSE estimation and DOA estimation checks."""

import numpy as np
import pytest

from fdmimo.channel import steering_vector
from fdmimo.estimation import (
    NoSignalError,
    PilotConfig,
    Pilots,
    doa_estimate,
    estimation_error_variance,
    mmse_estimate,
    orthogonal_pilots,
)


def test_orthogonal_pilots_exact():
    for streams, length in ((1, 1), (2, 8), (4, 40), (3, 7)):
        p = orthogonal_pilots(streams, length)
        assert p.shape == (streams, length)
        assert np.allclose(np.abs(p), 1.0)
        assert np.allclose(p @ p.conj().T, length * np.eye(streams), atol=1e-9)
    with pytest.raises(ValueError):
        orthogonal_pilots(4, 3)


def test_error_variance_closed_form():
    # unit prior, unit noise, L unit-power pilots: error = 1 / (L + 1)
    assert estimation_error_variance(1.0, 10.0, 1.0) == pytest.approx(1.0 / 11.0, rel=1e-12)
    assert estimation_error_variance(1.0, 40.0, 1.0) == pytest.approx(1.0 / 41.0, rel=1e-12)
    assert estimation_error_variance(1.0, 400.0, 1.0) == pytest.approx(1.0 / 401.0, rel=1e-12)
    assert estimation_error_variance(2.0, 8.0, 0.5) == pytest.approx(1.0 / 16.5, rel=1e-12)
    for bad in ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)):
        with pytest.raises(ValueError):
            estimation_error_variance(*bad)


def test_mmse_noiseless_limit_recovers_channel():
    rng = np.random.default_rng(0)
    h = (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))) / np.sqrt(2)
    p = orthogonal_pilots(2, 16)
    h_hat = mmse_estimate(h @ p, p, noise_var=1e-12, prior_var=1.0)
    assert np.allclose(h_hat, h, atol=1e-6)


def test_mmse_shrinkage_factor():
    # noiseless observation still shrinks toward the prior mean (zero)
    h = np.array([[1.0 + 0.0j]])
    p = orthogonal_pilots(1, 4)
    h_hat = mmse_estimate(h @ p, p, noise_var=1.0, prior_var=1.0)
    assert h_hat[0, 0] == pytest.approx(4.0 / 5.0, rel=1e-12)
    assert Pilots(p).energy == pytest.approx(4.0, rel=1e-12)


def test_mmse_empirical_mse():
    # 2000 independent scalar channels estimated in one batched call
    rng = np.random.default_rng(1)
    length = 20
    h = (rng.standard_normal((2000, 1)) + 1j * rng.standard_normal((2000, 1))) / np.sqrt(2)
    p = orthogonal_pilots(1, length)
    noise = (rng.standard_normal((2000, length)) + 1j * rng.standard_normal((2000, length))) / np.sqrt(2)
    h_hat = mmse_estimate(h @ p + noise, p, noise_var=1.0, prior_var=1.0)
    emp = np.mean(np.abs(h_hat - h) ** 2)
    assert emp == pytest.approx(estimation_error_variance(1.0, length, 1.0), rel=0.1)


def test_mmse_rejects_bad_pilots():
    y = np.zeros((2, 4), dtype=complex)
    with pytest.raises(ValueError, match="orthogonal with equal energy"):
        mmse_estimate(y, np.ones((2, 4)), noise_var=1.0, prior_var=1.0)
    with pytest.raises(ValueError, match="pilot length mismatch"):
        mmse_estimate(y, orthogonal_pilots(2, 8), noise_var=1.0, prior_var=1.0)
    with pytest.raises(ValueError, match="pilot length mismatch"):
        mmse_estimate(y, Pilots(orthogonal_pilots(2, 8)), noise_var=1.0, prior_var=1.0)


def test_pilots_are_checked_when_built():
    message = "pilot rows must be orthogonal with equal energy"
    with pytest.raises(ValueError, match=message):
        Pilots(np.ones((2, 4)))  # parallel rows
    with pytest.raises(ValueError, match=message):
        Pilots(orthogonal_pilots(2, 8) * np.array([[1.0], [2.0]]))  # unequal energy
    p = Pilots(3.0 * orthogonal_pilots(2, 8))
    assert p.energy == pytest.approx(72.0, rel=1e-12)
    with pytest.raises(AttributeError):
        p.energy = 1.0


def test_prebuilt_pilots_estimate_like_a_bare_matrix():
    rng = np.random.default_rng(4)
    p = 0.3 * orthogonal_pilots(3, 24)
    y = rng.standard_normal((5, 24)) + 1j * rng.standard_normal((5, 24))
    bare = mmse_estimate(y, p, noise_var=0.2, prior_var=1.5)
    assert bare.shape == (5, 3)
    assert np.array_equal(bare, mmse_estimate(y, Pilots(p), noise_var=0.2, prior_var=1.5))


def _sweep(angles, n):
    return np.stack([steering_vector(n, a) for a in angles])


def test_doa_recovers_planted_source():
    rng = np.random.default_rng(3)
    angles = np.linspace(-1.2, 1.2, 41)
    vectors = _sweep(angles, 8)
    s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    y = np.outer(steering_vector(8, angles[17]), s)
    y += 0.001 * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    assert doa_estimate(y, vectors, angles) == angles[17]


def test_doa_all_zero_raises():
    angles = [-0.5, 0.0, 0.5]
    vectors = _sweep(angles, 4)
    with pytest.raises(NoSignalError):
        doa_estimate(np.zeros((4, 8), dtype=complex), vectors, angles)


def test_doa_tie_resolves_to_lowest_index():
    angles = [-0.4, 0.1, 0.7]
    v = steering_vector(4, 0.1)
    vectors = np.stack([v, v, v])
    y = np.outer(v, np.ones(8))
    assert doa_estimate(y, vectors, angles) == angles[0]
    with pytest.raises(ValueError):
        doa_estimate(y, vectors, angles[:2])


def test_pilot_config_validation():
    cfg = PilotConfig(num_pilots=40, power_dbm=10.0)
    assert cfg.num_pilots == 40
    with pytest.raises(ValueError):
        PilotConfig(num_pilots=0)
    for bad in (1e6, -1e6, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="power_dbm"):
            PilotConfig(power_dbm=bad)
