"""Analog tap selection, saturation, projection and digital canceller."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmimo import cancellation
from fdmimo.cancellation import (
    InfeasibleProjectionError,
    RegressorRankError,
    apply_digital_canceller,
    check_saturation,
    effective_si_channel,
    residual_si_power,
    select_taps,
    select_taps_by_row,
    set_tap_gains,
    si_aware_precoder_projection,
    train_digital_canceller,
)
from fdmimo.config import LinkBudget


def _cn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _regressors(x):
    return np.vstack([x, np.conj(x), x * np.abs(x) ** 2])


def _min_norm_fit(x, y, lin):
    """The minimum-norm `lstsq` fit behind `train_digital_canceller`, unchecked."""
    return cancellation._fit(cancellation._regressors(x), x, y, lin)


def test_effective_si_channel():
    rng = np.random.default_rng(0)
    h = _cn(rng, 8, 16)
    f_tx = _cn(rng, 16, 2)
    f_rx = _cn(rng, 8, 2)
    assert np.allclose(effective_si_channel(h, f_tx, f_rx), f_rx.conj().T @ h @ f_tx)
    with pytest.raises(ValueError):
        effective_si_channel(h[:4], f_tx, f_rx)


def test_select_taps_matches_brute_force():
    # smoke version of the exhaustive acceptance check
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = _cn(rng, 2, 3)
        energy = np.abs(h) ** 2
        total = energy.sum()
        cells = list(itertools.product(range(2), range(3)))
        for k in range(h.size + 1):
            support = select_taps(h, k)
            greedy_resid = total - sum(energy[m, n] for m, n in support)
            best = min(
                total - sum(energy[m, n] for m, n in combo)
                for combo in itertools.combinations(cells, k)
            )
            assert greedy_resid == pytest.approx(best, abs=1e-12)
    with pytest.raises(ValueError):
        select_taps(h, 7)


def test_select_taps_tie_break_row_major():
    h = np.ones((2, 2), dtype=complex)
    assert select_taps(h, 2) == [(0, 0), (0, 1)]
    assert select_taps(h, 0) == []


def test_select_taps_by_row_covers_strong_rows():
    h = np.array([[1.0, 5.0], [3.0, 2.0]], dtype=complex)
    assert select_taps_by_row(h, 2) == [(0, 0), (0, 1)]
    assert select_taps_by_row(h, 3) == [(0, 0), (0, 1), (1, 0)]
    assert sorted(select_taps_by_row(h, 4)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(ValueError):
        select_taps_by_row(h, 5)
    # The leftover tap comes from an uncovered row, even when that row is
    # all zeros and so ties with the covered entries.
    zeros = np.array([[1, 1], [0, 0]], dtype=complex)
    assert select_taps_by_row(zeros, 3) == [(0, 0), (0, 1), (1, 0)]
    set_tap_gains(zeros, select_taps_by_row(zeros, 3))


def test_select_taps_by_row_leaves_low_rank_residual():
    rng = np.random.default_rng(2)
    h = _cn(rng, 4, 4)
    state = set_tap_gains(h, select_taps_by_row(h, 8))
    resid = h - state.matrix()
    svals = np.linalg.svd(resid, compute_uv=False)
    assert np.sum(svals > 1e-12) <= 2


def test_set_tap_gains_matrix():
    h = np.array([[1.0 + 2j, 3.0], [4.0, 5.0 - 1j]])
    state = set_tap_gains(h, [(0, 1), (1, 0)])
    expected = np.array([[0.0, 3.0], [4.0, 0.0]], dtype=complex)
    assert np.array_equal(state.matrix(), expected)
    with pytest.raises(ValueError):
        set_tap_gains(h, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        set_tap_gains(h, [(2, 0)])


def test_residual_si_power_closed_form():
    h = np.array([[1.0, 2j], [0.0, 3.0]], dtype=complex)
    empty = set_tap_gains(h, [])
    assert np.allclose(residual_si_power(h, empty, np.eye(2)), [5.0, 9.0])
    q = np.diag([2.0, 1.0]).astype(complex)
    assert np.allclose(residual_si_power(h, empty, q), [6.0, 9.0])
    full = set_tap_gains(h, select_taps(h, 4))
    assert np.allclose(residual_si_power(h, full, np.eye(2)), [0.0, 0.0], atol=1e-20)


def test_check_saturation_is_strict():
    limit_w = LinkBudget(rx_saturation_dbm=-20.0).rx_saturation_w
    assert limit_w == pytest.approx(1e-5, rel=1e-12)
    flags = check_saturation(np.array([1e-5, 1.0000001e-5, 9e-6]), limit_w)
    assert list(flags) == [False, True, False]


def test_projection_meets_budget():
    rng = np.random.default_rng(3)
    h = _cn(rng, 4, 8)
    state = set_tap_gains(h, [])
    w = _cn(rng, 8, 2)
    w /= np.linalg.norm(w)
    mu = 0.1 * np.linalg.norm(h @ w) ** 2
    r = h - state.matrix()
    out = si_aware_precoder_projection(w, r, mu, np.linalg.svd(r)[1:])
    assert np.linalg.norm(h @ out) ** 2 <= mu + 1e-12
    assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-9)


def test_projection_feasible_input_is_untouched():
    rng = np.random.default_rng(4)
    h = _cn(rng, 2, 4)
    state = set_tap_gains(h, select_taps(h, 8))  # full taps: zero residual
    w = _cn(rng, 4, 2)
    w /= np.linalg.norm(w)
    r = h - state.matrix()
    out = si_aware_precoder_projection(w, r, 1e-9, np.linalg.svd(r)[1:])
    assert np.array_equal(out, w)
    with pytest.raises(ValueError):
        si_aware_precoder_projection(w, r, -1.0, np.linalg.svd(r)[1:])


def test_projection_infeasible_raises():
    rng = np.random.default_rng(5)
    h = 10.0 * np.eye(4, dtype=complex)  # full-rank residual, no null space
    state = set_tap_gains(h, [])
    w = _cn(rng, 4, 2)
    w /= np.linalg.norm(w)
    r = h - state.matrix()
    with pytest.raises(InfeasibleProjectionError):
        si_aware_precoder_projection(w, r, 1e-20, np.linalg.svd(r)[1:])


def test_digital_canceller_recovers_planted_model():
    rng = np.random.default_rng(6)
    x = _cn(rng, 2, 64)
    planted = _cn(rng, 3, 6)
    y = planted @ _regressors(x)
    coeffs = train_digital_canceller(x, y, np.zeros((3, 2)))
    assert np.allclose(coeffs, planted, atol=1e-8)
    resid = apply_digital_canceller(coeffs, x, y)
    assert np.mean(np.abs(resid) ** 2) < 1e-16 * np.mean(np.abs(y) ** 2)


def test_digital_canceller_linear_seed_is_neutral():
    # seeding with the known linear part must not change the solution
    rng = np.random.default_rng(7)
    x = _cn(rng, 2, 48)
    planted = _cn(rng, 2, 6)
    y = planted @ _regressors(x)
    a = train_digital_canceller(x, y, np.zeros((2, 2)))
    b = train_digital_canceller(x, y, planted[:, :2])
    assert np.allclose(a, b, atol=1e-8)


def test_digital_canceller_validation():
    rng = np.random.default_rng(8)
    x = _cn(rng, 2, 5)
    with pytest.raises(ValueError):
        train_digital_canceller(x, _cn(rng, 2, 5), np.zeros((2, 2)))  # too short
    x = _cn(rng, 2, 12)
    with pytest.raises(ValueError):
        train_digital_canceller(x, _cn(rng, 2, 10), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        train_digital_canceller(x, _cn(rng, 2, 12), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        apply_digital_canceller(np.zeros((2, 4)), x, _cn(rng, 2, 12))


def test_digital_canceller_rank_deficient_raises():
    rng = np.random.default_rng(9)
    # one stream through two chains: x rows are proportional
    s = _cn(rng, 1, 32)
    x = np.vstack([s, 0.5 * s])
    with pytest.raises(RegressorRankError):
        train_digital_canceller(x, _cn(rng, 2, 32), np.zeros((2, 2)))


def test_min_norm_fit_handles_one_stream_on_two_chains():
    # The strict fit refuses dependent chain signals; the min-norm fit on
    # the same slot still cancels a planted model down to the noise floor.
    rng = np.random.default_rng(10)
    s = _cn(rng, 1, 400)
    x = np.vstack([s, 0.5j * s])
    planted = _cn(rng, 3, 6)
    noise = 1e-3 * _cn(rng, 3, 400)
    y = planted @ _regressors(x) + noise
    lin = _cn(rng, 3, 2)
    with pytest.raises(RegressorRankError):
        train_digital_canceller(x, y, lin)
    resid = apply_digital_canceller(_min_norm_fit(x, y, lin), x, y)
    floor = np.mean(np.abs(noise) ** 2)
    assert 0.9 * floor < np.mean(np.abs(resid) ** 2) <= floor * (1 + 1e-9)


def test_train_digital_canceller_is_the_checked_fit():
    # As many streams as chains: the burst passes the early rank check and
    # the checked fit is the unchecked one, bit for bit.
    rng = np.random.default_rng(11)
    x, y, lin = _cn(rng, 2, 64), _cn(rng, 3, 64), _cn(rng, 3, 2)
    assert np.array_equal(train_digital_canceller(x, y, lin), _min_norm_fit(x, y, lin))
    for chains in range(1, 9):
        x = _cn(rng, chains, chains) @ _cn(rng, chains, 3 * chains + 40)
        y, lin = _cn(rng, 3, x.shape[1]), _cn(rng, 3, chains)
        assert np.array_equal(
            train_digital_canceller(x, y, lin), _min_norm_fit(x, y, lin)
        ), chains


@settings(max_examples=60, deadline=None)
@given(
    streams=st.integers(1, 6),
    more=st.integers(1, 4),
    extra=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_dependent_burst_is_rejected_before_the_regressors(streams, more, extra, seed):
    # Fewer streams than chains: the strict fit raises without building the
    # 3n regressors, which the patched builder would report.
    chains = streams + more
    rng = np.random.default_rng(seed)
    x = _cn(rng, chains, streams) @ _cn(rng, streams, 3 * chains + extra)
    y, lin = _cn(rng, 3, x.shape[1]), _cn(rng, 3, chains)
    built = AssertionError("regressors built for a dependent burst")
    with mock.patch.object(cancellation, "_regressors", side_effect=built):
        with pytest.raises(RegressorRankError):
            train_digital_canceller(x, y, lin)


def _textbook_fit(x, y, r):
    """The canceller fit as first written: vstacked regressors, copied targets."""
    phi = _regressors(x)
    fit, *_ = np.linalg.lstsq(phi.conj().T, (y - r @ x).conj().T, rcond=None)
    coeffs = fit.conj().T
    coeffs[:, : x.shape[0]] += r
    return coeffs


def _textbook_rank_ok(x):
    n = x.shape[0]
    phi = _regressors(x)
    return (
        np.linalg.matrix_rank(x @ x.conj().T) == n
        and np.linalg.matrix_rank(phi @ phi.conj().T) == 3 * n
    )


@settings(max_examples=80, deadline=None)
@given(
    chains=st.integers(1, 8),
    streams=st.integers(1, 8),
    rx=st.integers(1, 8),
    members=st.integers(1, 4),
    extra=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_slot_path_is_the_textbook_arithmetic(chains, streams, rx, members, extra, seed):
    # The slot path writes into arrays it allocates itself; it must return
    # exactly what the textbook formulas return and never write into its
    # inputs, which are read-only here.  Fewer streams than chains gives a
    # rank-deficient burst; stacked members share the burst's regressors.
    rng = np.random.default_rng(seed)
    streams = min(streams, chains)
    x = _cn(rng, chains, streams) @ _cn(rng, streams, 3 * chains + extra)
    y = _cn(rng, members * rx, x.shape[1])
    lin = np.tile(_cn(rng, rx, chains), (members, 1))
    for a in (x, y, lin):
        a.setflags(write=False)
    want = _textbook_fit(x, y, lin)
    assert np.array_equal(_min_norm_fit(x, y, lin), want)
    if _textbook_rank_ok(x):
        assert np.array_equal(train_digital_canceller(x, y, lin), want)
    else:
        with pytest.raises(RegressorRankError):
            train_digital_canceller(x, y, lin)
    want.setflags(write=False)
    assert np.array_equal(apply_digital_canceller(want, x, y), y - want @ _regressors(x))


@settings(max_examples=40, deadline=None)
@given(
    chains=st.integers(1, 6),
    streams=st.integers(1, 6),
    rx=st.integers(1, 8),
    extra=st.integers(0, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_regressors_give_the_same_fit_and_come_back_unchanged(
    chains, streams, rx, extra, seed
):
    # A slot builds the regressors once for its fit and its apply; the fit
    # conjugates them in place for the solver and must restore them.
    rng = np.random.default_rng(seed)
    streams = min(streams, chains)
    x = _cn(rng, chains, streams) @ _cn(rng, streams, 3 * chains + extra)
    y, lin = _cn(rng, rx, x.shape[1]), _cn(rng, rx, chains)
    phi = cancellation._regressors(x)
    want = phi.copy()
    fit = cancellation._fit(phi, x, y, lin)
    assert np.array_equal(phi, want)
    assert np.array_equal(cancellation._fit(phi, x, y, lin), fit)
