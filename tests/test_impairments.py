"""TX chain impairment models against closed-form RF bench results.

The two-tone test uses real passband tones with powers quoted as analytic
amplitude squared, the convention under which the cubic model with
coefficient 4 / (3 A_ip^2) puts the third-order products at exactly
3 P - 2 IIP3 dBm.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmimo.config import PA_TURNOVER_DB, TxImpairmentConfig, dbm_to_watt
from fdmimo.impairments import apply_tx_chain, iq_imbalance, pa_nonlinearity, watt_to_dbm


def two_tone_im3_dbm(per_tone_dbm, iip3_dbm, n=4096, f1=200, f2=300):
    amp = np.sqrt(dbm_to_watt(per_tone_dbm))
    t = np.arange(n)
    x = amp * (np.cos(2 * np.pi * f1 * t / n) + np.cos(2 * np.pi * f2 * t / n))
    spec = np.fft.fft(pa_nonlinearity(x, iip3_dbm)) / n
    # one-sided amplitude of the lower intermodulation line
    return watt_to_dbm((2.0 * np.abs(spec[2 * f1 - f2])) ** 2)


def test_dbm_watt_round_trip():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-12)
    for p_dbm in (-110.0, -20.0, 0.0, 23.0, 46.0):
        assert watt_to_dbm(dbm_to_watt(p_dbm)) == pytest.approx(p_dbm, abs=1e-9)


def test_watt_to_dbm_rejects_nonpositive():
    with pytest.raises(ValueError):
        watt_to_dbm(0.0)
    with pytest.raises(ValueError):
        watt_to_dbm(-1e-6)


def test_im3_matches_intercept_extrapolation():
    # closed form: IM3 = 3 P - 2 IIP3 dBm
    assert two_tone_im3_dbm(-10.0, 20.0) == pytest.approx(-70.0, abs=0.01)
    assert two_tone_im3_dbm(-30.0, 20.0) == pytest.approx(-130.0, abs=0.01)
    assert two_tone_im3_dbm(-20.0, 30.0) == pytest.approx(-120.0, abs=0.01)


def test_im3_slope_is_cubic():
    powers = np.arange(-30.0, -9.0, 5.0)
    levels = [two_tone_im3_dbm(p, 20.0) for p in powers]
    slope = np.polyfit(powers, levels, 1)[0]
    assert slope == pytest.approx(3.0, abs=0.01)


def test_infinite_iip3_is_transparent():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.array_equal(pa_nonlinearity(x, np.inf), x)


def test_pa_is_compressive():
    # the cubic term opposes the signal below the intercept
    x = np.array([0.01 + 0.0j])
    y = pa_nonlinearity(x, 20.0)
    assert abs(y[0]) < abs(x[0])
    assert np.angle(y[0]) == pytest.approx(0.0, abs=1e-12)


def test_image_tone_at_minus_irr():
    n = 1024
    x = np.exp(2j * np.pi * 50 * np.arange(n) / n)
    spec = np.fft.fft(iq_imbalance(x, 30.0)) / n
    image = np.abs(spec[n - 50]) ** 2
    carrier = np.abs(spec[50]) ** 2
    assert 10 * np.log10(image / carrier) == pytest.approx(-30.0, abs=1e-9)


def test_iq_imbalance_formula():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    nu = 10.0 ** (-30.0 / 20.0)
    assert np.allclose(iq_imbalance(x, 30.0), x + nu * np.conj(x))
    assert np.array_equal(iq_imbalance(x, np.inf), x)


def test_disabled_chain_is_passthrough():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    cfg = TxImpairmentConfig(enabled=False)
    assert np.array_equal(apply_tx_chain(x, cfg), x)


def test_chain_applies_iq_before_pa():
    rng = np.random.default_rng(3)
    x = 0.05 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    cfg = TxImpairmentConfig()
    expected = pa_nonlinearity(iq_imbalance(x, cfg.irr_db), cfg.iip3_dbm)
    swapped = iq_imbalance(pa_nonlinearity(x, cfg.iip3_dbm), cfg.irr_db)
    assert not np.allclose(expected, swapped)
    # The chain runs the stages with the burst scaled to the drive level.
    scale = np.sqrt(dbm_to_watt(cfg.drive_dbm) / np.mean(np.abs(x) ** 2))
    expected = pa_nonlinearity(iq_imbalance(scale * x, cfg.irr_db), cfg.iip3_dbm)
    swapped = iq_imbalance(pa_nonlinearity(scale * x, cfg.iip3_dbm), cfg.irr_db)
    out = scale * apply_tx_chain(x, cfg)
    assert np.allclose(out, expected)
    assert not np.allclose(out, swapped)


def test_impairment_config_validation():
    with pytest.raises(ValueError):
        TxImpairmentConfig(irr_db=0.0)
    with pytest.raises(ValueError):
        TxImpairmentConfig(irr_db=-3.0)
    assert TxImpairmentConfig(iip3_dbm=np.inf).iip3_dbm == np.inf  # an ideal PA
    for bad in (-np.inf, np.nan, 1e6, -301.0):
        with pytest.raises(ValueError, match="iip3_dbm"):
            TxImpairmentConfig(iip3_dbm=bad)
        with pytest.raises(ValueError, match="drive_dbm"):
            TxImpairmentConfig(drive_dbm=bad)
    TxImpairmentConfig(iip3_dbm=300.0, drive_dbm=-300.0)  # the bounds themselves are fine


def test_drive_at_the_pa_turnover_is_rejected():
    # The cubic's output peaks 10 log10(4) dB under the intercept.
    r2 = np.linspace(0.0, 1.0, 100_001)  # |x|^2 over A^2
    r = np.sqrt(r2)
    peak = r2[np.argmax(r - 4.0 * r**3 / 3.0)]
    assert 10.0 * np.log10(1.0 / peak) == pytest.approx(PA_TURNOVER_DB, abs=1e-4)
    for iip3 in (-33.0, 20.0):
        with pytest.raises(ValueError, match="drive_dbm.*turns over"):
            TxImpairmentConfig(iip3_dbm=iip3, drive_dbm=iip3 - PA_TURNOVER_DB)
        TxImpairmentConfig(iip3_dbm=iip3, drive_dbm=iip3 - PA_TURNOVER_DB - 1e-9)
        # Without the PA model the drive only scales the chains.
        TxImpairmentConfig(iip3_dbm=iip3, drive_dbm=iip3 + 50.0, enabled=False)
    TxImpairmentConfig(iip3_dbm=np.inf, drive_dbm=300.0)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 4),
    samples=st.integers(1, 300),
    scale_db=st.floats(-60.0, 20.0),
    iip3=st.sampled_from([20.0, 0.0, np.inf]),
    irr=st.sampled_from([30.0, 10.0, np.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_is_the_textbook_arithmetic(rows, samples, scale_db, iip3, irr, seed):
    # Each stage works in its own temporaries; it must return exactly what
    # the out-of-place formulas return and never write into its input.
    rng = np.random.default_rng(seed)
    amp = np.sqrt(dbm_to_watt(scale_db))
    x = amp * (rng.standard_normal((rows, samples)) + 1j * rng.standard_normal((rows, samples)))
    x.setflags(write=False)

    def iq(v):
        return v if np.isinf(irr) else v + 10.0 ** (-irr / 20.0) * np.conj(v)

    def pa(v):
        return v if np.isinf(iip3) else v - (4.0 / (3.0 * dbm_to_watt(iip3))) * v * np.abs(v) ** 2

    assert np.array_equal(iq_imbalance(x, irr), iq(x))
    assert np.array_equal(pa_nonlinearity(x, iip3), pa(x))
    # The chain scales each row to the drive level, runs IQ then PA, and
    # scales back.
    cfg = TxImpairmentConfig(iip3_dbm=iip3, irr_db=irr)
    scale = np.sqrt(dbm_to_watt(cfg.drive_dbm) / np.mean(np.abs(x) ** 2, axis=1, keepdims=True))
    assert np.array_equal(apply_tx_chain(x, cfg), pa(iq(x * scale)) / scale)
