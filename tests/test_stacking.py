"""Stacked rate and canceller calls equal the 2-D calls, member for member.

Scenarios a and b score all schemes of a power point as one stack.  Their
CSVs stay byte-identical to scoring each scheme alone only if every
stacked call returns exactly (`np.array_equal`), not approximately, what
the 2-D call on each member returns.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmimo.beamforming import mmse_combiner
from fdmimo.cancellation import (
    RegressorRankError,
    apply_digital_canceller,
    fit_digital_canceller,
    train_digital_canceller,
)
from fdmimo.link import dl_rate, ul_rate

dims = st.integers(1, 6)
batches = st.integers(1, 5)
seeds = st.integers(0, 2**32 - 1)


def _cn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hpd(rng, *batch, n):
    """Hermitian positive definite matrices with a leading `batch` shape."""
    a = _cn(rng, *batch, n, n)
    return a @ a.conj().swapaxes(-1, -2) + 0.1 * np.eye(n)


@settings(max_examples=60, deadline=None)
@given(batch=batches, rows=dims, cols=dims, streams=dims, seed=seeds)
def test_stacked_dl_rate_is_exact(batch, rows, cols, streams, seed):
    rng = np.random.default_rng(seed)
    h = _cn(rng, rows, cols)
    w = _cn(rng, batch, cols, streams)
    cov = _hpd(rng, batch, n=rows)
    stacked = dl_rate(h, w, 2.0, 0.5, cov)
    plain = dl_rate(h, w, 2.0, 0.5)
    assert stacked.shape == plain.shape == (batch,)
    for k in range(batch):
        assert np.array_equal(stacked[k], dl_rate(h, w[k], 2.0, 0.5, cov[k]))
        assert np.array_equal(plain[k], dl_rate(h, w[k], 2.0, 0.5))


@settings(max_examples=60, deadline=None)
@given(batch=batches, chains=dims, streams=dims, seed=seeds)
def test_stacked_mmse_combiner_is_exact(batch, chains, streams, seed):
    rng = np.random.default_rng(seed)
    h = _cn(rng, batch, chains, streams)
    cov = _hpd(rng, batch, n=chains)
    stacked = mmse_combiner(h, cov)
    for k in range(batch):
        assert np.array_equal(stacked[k], mmse_combiner(h[k], cov[k]))


@settings(max_examples=60, deadline=None)
@given(batch=batches, chains=dims, streams=dims, seed=seeds)
def test_stacked_ul_rate_is_exact(batch, chains, streams, seed):
    # More streams than chains leaves the combined noise singular (NaN rate).
    streams = min(streams, chains)
    rng = np.random.default_rng(seed)
    h = _cn(rng, batch, chains, streams)
    u = _cn(rng, batch, chains, streams)
    cov = _hpd(rng, batch, n=chains)
    stacked = ul_rate(h, u, 3.0, cov)
    for k in range(batch):
        assert np.array_equal(stacked[k], ul_rate(h[k], u[k], 3.0, cov[k]))
    # The scorer's form: each member's rate and its interference-free
    # bound share one call, with the channel and combiner broadcast.
    pairs = np.stack([cov, _hpd(rng, batch, n=chains)], axis=1)
    both = ul_rate(h[:, None], u[:, None], 3.0, pairs)
    assert both.shape == (batch, 2)
    for k in range(batch):
        for j in range(2):
            assert np.array_equal(both[k, j], ul_rate(h[k], u[k], 3.0, pairs[k, j]))


@settings(max_examples=40, deadline=None)
@given(
    members=batches,
    rx=st.integers(2, 8),  # a lone row takes BLAS vector kernels; never stacked
    tx=dims,
    streams=dims,
    extra=st.integers(0, 200),
    seed=seeds,
)
def test_stacked_canceller_fit_is_exact(members, rx, tx, streams, extra, seed):
    rng = np.random.default_rng(seed)
    samples = 3 * tx + extra
    # Fewer streams than chains leaves the regressors dependent, which
    # takes the minimum-norm fit instead of the checked one.
    x = _cn(rng, tx, min(streams, tx)) @ _cn(rng, min(streams, tx), samples)
    resid = _cn(rng, rx, tx)
    ys = [_cn(rng, rx, samples) for _ in range(members)]
    rows = np.vstack(ys)
    seed_rows = np.tile(resid, (members, 1))
    try:
        stacked = train_digital_canceller(x, rows, seed_rows)
        fit = train_digital_canceller
    except RegressorRankError:
        stacked = fit_digital_canceller(x, rows, seed_rows)
        fit = fit_digital_canceller
    cleaned = apply_digital_canceller(stacked, x, rows)
    for k, y in enumerate(ys):
        block = slice(k * rx, (k + 1) * rx)
        coeffs = fit(x, y, resid)
        assert np.array_equal(stacked[block], coeffs)
        assert np.array_equal(cleaned[block], apply_digital_canceller(coeffs, x, y))
