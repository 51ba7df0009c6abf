"""Channel model statistics against independent closed forms."""

import time

import numpy as np
import pytest
import scipy.special  # the oracle for fdmimo's own J0, never used by fdmimo

from fdmimo.channel import (
    AgingParams,
    _bessel_j0,
    ClusteredParams,
    RicianParams,
    complex_gaussian,
    doppler_correlation,
    evolve_gauss_markov,
    gen_clustered_mmwave,
    gen_rayleigh,
    gen_rician,
    steering_vector,
)

# J0(2 pi * 50 Hz * 1 ms) from the Bessel power series, summed independently
J0_50HZ_1MS = 0.9754777740752495


def test_doppler_correlation_matches_series():
    assert doppler_correlation(50.0, 1e-3) == pytest.approx(J0_50HZ_1MS, abs=1e-9)


def test_doppler_correlation_endpoints_and_clamp():
    assert doppler_correlation(0.0, 1.0) == 1.0
    # past the first Bessel null (x ~ 2.405) the raw value is negative
    assert doppler_correlation(500.0, 1e-3) == 0.0


def test_doppler_correlation_validation():
    with pytest.raises(ValueError):
        doppler_correlation(-1.0, 1e-3)
    with pytest.raises(ValueError):
        doppler_correlation(50.0, 0.0)


def test_aging_params():
    aging = AgingParams(doppler_hz=50.0, slot_s=1e-3)
    assert aging.rho == pytest.approx(J0_50HZ_1MS, abs=1e-9)
    with pytest.raises(ValueError):
        AgingParams(doppler_hz=50.0, slot_s=0.0)


def test_bessel_j0_is_within_1e_15_of_scipy_up_to_100():
    # Both branches: the exact series up to 25, the Hankel expansion beyond.
    xs = np.linspace(0.0, 100.0, 2001)
    ours = np.array([_bessel_j0(float(x)) for x in xs])
    assert np.max(np.abs(ours - scipy.special.j0(xs))) <= 1e-15


@pytest.mark.parametrize("index, slope", [(0, -1.0), (1, 1.0)], ids=["2.405", "5.520"])
def test_bessel_j0_changes_sign_at_its_zeros(index, slope):
    zero = float(scipy.special.jn_zeros(0, 2)[index])
    assert abs(_bessel_j0(zero) - float(scipy.special.j0(zero))) <= 1e-15
    for dx in (1e-9, 1e-6, 1e-3):
        assert slope * _bessel_j0(zero - dx) < 0.0 < slope * _bessel_j0(zero + dx)


def test_doppler_correlation_clamps_negative_j0_to_zero():
    # fD Ts = x / (2 pi) puts the argument between J0's first two zeros.
    for x in (2.41, 3.8317, 5.51):
        assert _bessel_j0(x) < 0.0
        assert doppler_correlation(x / (2.0 * np.pi), 1.0) == 0.0
    # Past the second zero J0 is positive again and passes through.
    f = 5.53 / (2.0 * np.pi)
    rho = doppler_correlation(f, 1.0)
    assert rho > 0.0
    assert rho == pytest.approx(float(scipy.special.j0(2.0 * np.pi * f)), abs=1e-15)


@pytest.mark.parametrize(
    "x, tol",
    # At 1e6 scipy first rounds x - pi/4 to a float: half an ulp of 1e6
    # (5.8e-11) times the amplitude sqrt(2/(pi x)) (8e-4) is 5e-14.
    [(1e3, 2e-15), (1e6, 1e-13)],
    ids=["1e3", "1e6"],
)
def test_bessel_j0_far_out(x, tol):
    start = time.perf_counter()
    value = _bessel_j0(x)
    assert time.perf_counter() - start < 0.01
    assert abs(value - float(scipy.special.j0(x))) <= tol


def test_complex_gaussian_moments():
    rng = np.random.default_rng(0)
    z = complex_gaussian(rng, 300, 300)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.02)
    assert abs(np.mean(z)) < 0.01
    # circular symmetry: vanishing pseudo-variance
    assert abs(np.mean(z * z)) < 0.01


def test_rayleigh_unit_entry_power():
    rng = np.random.default_rng(1)
    h = gen_rayleigh(200, 200, rng)
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)
    with pytest.raises(ValueError):
        gen_rayleigh(0, 4, rng)


def test_rician_power_split():
    # with kappa = 10 dB the deterministic part carries k/(k+1) of the power
    rng = np.random.default_rng(2)
    params = RicianParams(kappa_db=10.0, rows=4, cols=4)
    los = np.ones((4, 4), dtype=complex)
    draws = np.stack([gen_rician(params, rng, los=los) for _ in range(3000)])
    kappa = 10.0
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.02)
    assert np.mean(draws) == pytest.approx(np.sqrt(kappa / (kappa + 1.0)), abs=0.01)


def test_rician_random_los_is_unit_modulus():
    rng = np.random.default_rng(3)
    params = RicianParams(kappa_db=300.0, rows=3, cols=5)
    h = gen_rician(params, rng)
    # at enormous kappa the draw is the LOS matrix itself
    assert np.allclose(np.abs(h), 1.0, atol=1e-10)


def test_rician_los_shape_validation():
    rng = np.random.default_rng(4)
    params = RicianParams(kappa_db=10.0, rows=2, cols=2)
    with pytest.raises(ValueError):
        gen_rician(params, rng, los=np.ones((3, 2)))


def test_steering_vector_geometry():
    theta = 0.3
    a = steering_vector(8, theta)
    assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-12)
    # half-wavelength progression: pi sin(theta) phase per element
    steps = np.angle(a[1:] * np.conj(a[:-1]))
    assert np.allclose(steps, np.pi * np.sin(theta))
    assert np.allclose(steering_vector(4, 0.0), 0.5)
    with pytest.raises(ValueError):
        steering_vector(0, 0.1)


def test_clustered_average_entry_power():
    rng = np.random.default_rng(5)
    params = ClusteredParams(num_paths=7, rx_size=16, tx_size=16)
    power = np.mean(
        [np.mean(np.abs(gen_clustered_mmwave(params, rng)) ** 2) for _ in range(500)]
    )
    assert power == pytest.approx(1.0, rel=0.1)


def test_clustered_rank_bounded_by_paths():
    rng = np.random.default_rng(6)
    params = ClusteredParams(num_paths=3, rx_size=12, tx_size=12)
    h = gen_clustered_mmwave(params, rng)
    svals = np.linalg.svd(h, compute_uv=False)
    assert np.all(svals[3:] < 1e-10)


def test_clustered_fixed_angles():
    # a single boresight path makes every entry the common path gain
    rng = np.random.default_rng(7)
    params = ClusteredParams(num_paths=1, rx_size=4, tx_size=8, aod=[0.0], aoa=[0.0])
    h = gen_clustered_mmwave(params, rng)
    assert np.allclose(h, h[0, 0])
    with pytest.raises(ValueError):
        ClusteredParams(num_paths=2, rx_size=4, tx_size=4, aod=[0.0])


def test_gauss_markov_marginal_power_preserved():
    rng = np.random.default_rng(8)
    h = complex_gaussian(rng, 200, 200)
    for _ in range(5):
        h = evolve_gauss_markov(h, 0.9, rng)
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.03)


def test_gauss_markov_endpoints():
    rng = np.random.default_rng(9)
    h = complex_gaussian(rng, 50, 50)
    assert np.array_equal(evolve_gauss_markov(h, 1.0, rng), h)
    fresh = evolve_gauss_markov(h, 0.0, rng)
    # rho = 0 draws an independent realization
    assert abs(np.mean(fresh * np.conj(h))) < 0.05
    with pytest.raises(ValueError):
        evolve_gauss_markov(h, 1.5, rng)


def test_gauss_markov_lag_one_correlation():
    rng = np.random.default_rng(10)
    rho = doppler_correlation(50.0, 1e-3)
    h0 = complex_gaussian(rng, 1000, 1000)
    h1 = evolve_gauss_markov(h0, rho, rng)
    corr = np.real(np.mean(h1 * np.conj(h0)))
    assert corr == pytest.approx(rho, abs=0.005)
