"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line so a log scan shows the verdict
per criterion.  Tolerances and runtime budgets are part of the checks.
"""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np

from fdmimo.cancellation import (
    apply_digital_canceller,
    residual_si_power,
    select_taps,
    set_tap_gains,
    train_digital_canceller,
)
from fdmimo.channel import evolve_gauss_markov
from fdmimo.cli import default_scenario
from fdmimo.config import dbm_to_watt, doppler_correlation
from fdmimo.estimation import estimation_error_variance, mmse_estimate, orthogonal_pilots
from fdmimo.impairments import iq_imbalance, pa_nonlinearity, watt_to_dbm
from fdmimo.link import run_scenario


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _cn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _curves(points):
    return {(c.scheme, c.power_dbm): c.mean_rate_bps_hz for c in points}


def _two_tone_im3_dbm(per_tone_dbm, iip3_dbm, n=4096, f1=200, f2=300):
    amp = np.sqrt(dbm_to_watt(per_tone_dbm))
    t = np.arange(n)
    x = amp * (np.cos(2 * np.pi * f1 * t / n) + np.cos(2 * np.pi * f2 * t / n))
    spec = np.fft.fft(pa_nonlinearity(x, iip3_dbm)) / n
    return watt_to_dbm((2.0 * np.abs(spec[2 * f1 - f2])) ** 2)


def test_criterion_01_impairment_calibration():
    start = time.perf_counter()
    im3 = _two_tone_im3_dbm(-10.0, 20.0)
    powers = np.arange(-30.0, -9.0, 5.0)
    slope = np.polyfit(powers, [_two_tone_im3_dbm(p, 20.0) for p in powers], 1)[0]
    n = 1024
    tone = np.exp(2j * np.pi * 50 * np.arange(n) / n)
    spec = np.fft.fft(iq_imbalance(tone, 30.0)) / n
    image_db = 10 * np.log10(np.abs(spec[n - 50]) ** 2 / np.abs(spec[50]) ** 2)
    elapsed = time.perf_counter() - start
    ok = (
        abs(im3 - (-70.0)) <= 0.5
        and abs(slope - 3.0) <= 0.1
        and abs(image_db - (-30.0)) <= 0.01
        and elapsed < 5.0
    )
    _report(
        1,
        ok,
        f"IM3 {im3:.3f} dBm (want -70 +/- 0.5), slope {slope:.4f} (want 3 +/- 0.1), "
        f"image {image_db:.4f} dB (want -30 +/- 0.01), {elapsed:.1f} s < 5 s",
    )


def test_criterion_02_tap_selection_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    mismatches = 0
    worst_full = 0.0
    for rows, cols in ((2, 2), (2, 4)):
        cells = list(itertools.product(range(rows), range(cols)))
        for _ in range(100):
            h = _cn(rng, rows, cols)
            energy = np.abs(h) ** 2
            total = energy.sum()
            for k in range(h.size + 1):
                state = set_tap_gains(h, select_taps(h, k))
                greedy = residual_si_power(h, state, np.eye(cols)).sum()
                best = min(
                    total - sum(energy[m, n] for m, n in combo)
                    for combo in itertools.combinations(cells, k)
                )
                if abs(greedy - best) > 1e-12:
                    mismatches += 1
            full = set_tap_gains(h, select_taps(h, h.size))
            worst_full = max(worst_full, residual_si_power(h, full, np.eye(cols)).sum())
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and worst_full < 1e-10 and elapsed < 30.0
    _report(
        2,
        ok,
        f"greedy == brute force on 200 draws x all K ({mismatches} mismatches), "
        f"full-tap residual {worst_full:.2e} < 1e-10, {elapsed:.1f} s < 30 s",
    )


def test_criterion_03_digital_canceller_identifiability():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    x = _cn(rng, 2, 400)
    phi = np.vstack([x, np.conj(x), x * np.abs(x) ** 2])
    planted = _cn(rng, 2, 6)
    clean = planted @ phi

    coeffs = train_digital_canceller(x, clean, np.zeros((2, 2)))
    resid = apply_digital_canceller(coeffs, x, clean)
    suppression_db = 10 * np.log10(
        np.mean(np.abs(clean) ** 2) / max(np.mean(np.abs(resid) ** 2), 1e-300)
    )

    sig_pow = np.mean(np.abs(clean) ** 2)
    noise_pow = sig_pow / 1e3  # 30 dB SNR
    noisy = clean + np.sqrt(noise_pow) * _cn(rng, 2, 400)
    coeffs = train_digital_canceller(x, noisy, np.zeros((2, 2)))
    resid = apply_digital_canceller(coeffs, x, noisy)
    gap_db = 10 * np.log10(np.mean(np.abs(resid) ** 2) / noise_pow)

    elapsed = time.perf_counter() - start
    ok = suppression_db >= 50.0 and abs(gap_db) <= 3.0 and elapsed < 10.0
    _report(
        3,
        ok,
        f"noiseless suppression {suppression_db:.1f} dB >= 50 dB, residual at 30 dB SNR "
        f"{gap_db:+.2f} dB of the noise floor (|.| <= 3), {elapsed:.1f} s < 10 s",
    )


def test_criterion_04_estimation_and_aging():
    rng = np.random.default_rng(2)
    worst_rel = 0.0
    for length in (10, 40, 400):
        pilots = orthogonal_pilots(1, length)
        sq_err = 0.0
        trials = 10_000
        chunk = 2_000
        for _ in range(trials // chunk):
            h = _cn(rng, chunk, 1)
            noise = _cn(rng, chunk, length)
            h_hat = mmse_estimate(h @ pilots + noise, pilots, 1.0, 1.0)
            sq_err += float(np.sum(np.abs(h_hat - h) ** 2))
        emp = sq_err / trials
        closed = estimation_error_variance(1.0, float(length), 1.0)
        worst_rel = max(worst_rel, abs(emp - closed) / closed)

    rho = doppler_correlation(50.0, 1e-3)
    h0 = _cn(rng, 1000, 1000)
    h1 = evolve_gauss_markov(h0, rho, rng)
    corr = float(np.real(np.mean(h1 * np.conj(h0))))

    ok = worst_rel <= 0.05 and abs(rho - 0.9755) < 1e-4 and 0.965 <= corr <= 0.985
    _report(
        4,
        ok,
        f"MSE vs closed form worst {100 * worst_rel:.2f}% <= 5% at L in (10, 40, 400), "
        f"lag-1 corr {corr:.4f} in [0.965, 0.985] at rho {rho:.4f}",
    )


def test_criterion_05_scenario_a_trend():
    start = time.perf_counter()
    cfg = dataclasses.replace(
        default_scenario("a"),
        power_sweep_dbm=(0.0, 10.0, 20.0, 30.0, 40.0),
        schemes=("proposed", "benchmark", "benchmark-ideal", "hd"),
    )
    r = _curves(run_scenario(cfg))
    elapsed = time.perf_counter() - start
    beats_null = all(r[("proposed", p)] > r[("benchmark", p)] for p in (30.0, 40.0))
    beats_hd = all(r[("proposed", p)] >= r[("hd", p)] for p in (20.0, 30.0, 40.0))
    degradation = r[("benchmark-ideal", 40.0)] - r[("benchmark", 40.0)]
    ok = beats_null and beats_hd and degradation >= 2.0 and elapsed < 300.0
    _report(
        5,
        ok,
        f"proposed > null-space benchmark at 30/40 dBm ({beats_null}), "
        f"proposed >= HD at >= 20 dBm ({beats_hd}), "
        f"TX impairment cost at 40 dBm {degradation:.2f} >= 2 bps/Hz, "
        f"{elapsed:.0f} s < 300 s",
    )


def test_criterion_06_scenario_b_trend():
    start = time.perf_counter()
    cfg = default_scenario("b")
    r = _curves(run_scenario(cfg))
    elapsed = time.perf_counter() - start
    above_at_25 = r[("benchmark", 25.0)] > r[("hd", 25.0)]
    below_at_45 = r[("benchmark", 45.0)] < r[("hd", 45.0)]
    proposed_above = all(
        r[("proposed", p)] > r[("hd", p)] for p in cfg.power_sweep_dbm
    )
    ok = above_at_25 and below_at_45 and proposed_above and elapsed < 600.0
    _report(
        6,
        ok,
        f"BF-only benchmark crosses below HD inside [25, 45] dBm "
        f"(above at 25: {above_at_25}, below at 45: {below_at_45}), "
        f"proposed stays above HD over the sweep ({proposed_above}), "
        f"{elapsed:.0f} s < 600 s",
    )


def test_criterion_07_scenario_c_trend():
    start = time.perf_counter()
    cfg = default_scenario("c")
    r = _curves(run_scenario(cfg))
    elapsed = time.perf_counter() - start
    high = [p for p in cfg.power_sweep_dbm if p >= 25.0]
    beats_both = all(
        r[("proposed", p)] > r[("benchmark", p)] and r[("proposed", p)] > r[("hd", p)]
        for p in high
    )
    ideal_top = all(
        r[("ideal-csi", 40.0)] > r[(s, 40.0)] for s in ("proposed", "benchmark", "hd")
    )
    ok = beats_both and ideal_top and elapsed < 300.0
    _report(
        7,
        ok,
        f"proposed > sequential benchmark and HD at >= 25 dBm ({beats_both}), "
        f"realistic CSI below ideal CSI at 40 dBm ({ideal_top}), "
        f"{elapsed:.0f} s < 300 s",
    )


def test_criterion_08_scenario_d_trend():
    start = time.perf_counter()
    cfg = default_scenario("d")
    r = _curves(run_scenario(cfg))
    elapsed = time.perf_counter() - start
    gap = abs(r[("proposed", 40.0)] - r[("benchmark", 40.0)])

    def slopes(scheme):
        low = (r[(scheme, 15.0)] - r[(scheme, 10.0)]) / 5.0
        high = (r[(scheme, 45.0)] - r[(scheme, 40.0)]) / 5.0
        return low, high

    doa_saturates = True
    for scheme in ("proposed", "benchmark"):
        low, high = slopes(scheme)
        doa_saturates = doa_saturates and high < 0.5 * low
    ideal_low, ideal_high = slopes("ideal-csi")
    ideal_keeps_slope = not ideal_high < 0.5 * ideal_low
    ok = gap <= 3.0 and doa_saturates and ideal_keeps_slope and elapsed < 300.0
    _report(
        8,
        ok,
        f"K=2 vs K=4 gap at 40 dBm {gap:.2f} <= 3 bps/Hz, DOA curves saturate "
        f"({doa_saturates}), ideal CSI does not ({ideal_keeps_slope}), "
        f"{elapsed:.0f} s < 300 s",
    )


def test_criterion_09_complexity_report():
    proc = subprocess.run(
        [sys.executable, "-m", "fdmimo.cli", "complexity", "--config", "scenario_b"],
        capture_output=True,
        text=True,
    )
    report = json.loads(proc.stdout) if proc.returncode == 0 else {}
    expected = {
        "phase_shifters_partially_connected": 96,
        "phase_shifters_fully_connected": 320,
        "taps_full_antenna": 2048,
        "taps_full_chain": 8,
        "taps_configured": 4,
    }
    ok = (
        proc.returncode == 0
        and report == expected
        and all(isinstance(v, int) for v in report.values())
    )
    _report(
        9,
        ok,
        f"hardware counts {report} match the architecture arithmetic exactly",
    )


def test_criterion_10_thread_determinism(tmp_path):
    # BLAS threading must not reach the curves: scenario a stacks small
    # solves, and scenario c's canceller solves 16 right-hand sides at once.
    sweeps = {
        "a": {"trials": 6, "power_sweep_dbm": [0, 20, 40], "schemes": ["proposed", "hd"]},
        "c": {"trials": 4, "power_sweep_dbm": [0, 20, 40], "schemes": ["proposed", "benchmark"]},
    }
    ok = True
    for code, sweep in sweeps.items():
        cfg = tmp_path / f"sweep_{code}.json"
        cfg.write_text(json.dumps({"scenario": code, "seed": 9, **sweep}))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"curve_{code}_{threads}.csv"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "fdmimo.cli",
                    "run",
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        ok = ok and outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(10, ok, "same seed, BLAS threads 1 and 2, scenarios a and c: byte-identical CSV")
