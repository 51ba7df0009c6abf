"""Machine-speed probe: a fixed workload that does not use fdmimo.

The cores the benchmark runs on may be shared.  On the machine it was tuned
on, the same sweep took from 1.3 s to 2.3 s depending on the stretch of time
it ran in, in CPU time as well as wall time, and a 40-second median still
moved by about 10% from one run to the next.  The benchmark therefore runs
this probe next to every timed interval and reports the interval in
reference seconds: wall * PROBE_REFERENCE_S / probe.  The probe imitates one
simulator trial (Python loops over small complex matrices, an SVD, a
least-squares fit, log-determinants), so it slows down with the machine the
way a sweep does, while a change to fdmimo moves the sweep and not the probe.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time on the machine the benchmark was tuned on, so that reference
# seconds read close to wall seconds there.
PROBE_REFERENCE_S = 0.1
PROBE_TRIALS = 24


def _cn(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _logdet_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float((np.linalg.slogdet(a)[1] - np.linalg.slogdet(b)[1]) / np.log(2.0))


def _trial(rng: np.random.Generator, powers: int = 8) -> float:
    h, hu, hs = _cn(rng, 4, 4), _cn(rng, 4, 4), _cn(rng, 4, 4)
    s, n = _cn(rng, 4, 400), _cn(rng, 4, 400)
    total = 0.0
    for p in range(powers):
        pw = 10.0 ** (p / 10.0)
        _, _, vh = np.linalg.svd(h)
        w = vh[:2].conj().T / np.sqrt(2.0)
        x = np.sqrt(pw) * (w @ s[:2])
        xt = x + 0.01 * x.conj() - 0.001 * x * np.abs(x) ** 2
        r = hs @ xt + hu[:, :1] @ s[2:3] + n
        phi = np.vstack([x, x.conj(), x * np.abs(x) ** 2])
        fit, *_ = np.linalg.lstsq(phi.conj().T, r.conj().T, rcond=None)
        z = r - fit.conj().T @ phi
        c = (z @ z.conj().T) / z.shape[1] + np.eye(4)
        g = h @ w
        total += _logdet_gap(c + pw * (g @ g.conj().T), c)
        u = np.linalg.solve(c, hu[:, :1])
        total += float(np.real(u.conj().T @ hu[:, :1])[0, 0])
    return total


def probe_seconds() -> float:
    """Wall time of PROBE_TRIALS fixed stand-in trials."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(PROBE_TRIALS):
        _trial(rng)
    return time.perf_counter() - start
