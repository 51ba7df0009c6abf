"""`cancel_slot`, the digital canceller of a receive slot, against the fit.

A burst that `cancel_slot` projects gets the unique least-squares residual
from a projection on a basis of its regressors' row space: their own rows
when the burst has as many streams as chains, or a reduced basis when two
or more streams drive more chains.  Either way it must match the `lstsq`
fit and apply within 1e-9 of the largest receive sample (the README's rate
tolerance, taken relative to the slot's scale), and give each member of a
stack exactly what it gives that member alone.  A burst that `cancel_slot`
does not project must still take the minimum-norm fit and apply, bit for
bit; one stream on two or more chains, a silent chain and a burst whose
rank its singular values leave in doubt are never projected.  Bursts span
the power sweep of the scenarios, -10 to 50 dBm, over which the amplitude
of x grows a thousandfold and that of the x |x|^2 regressors a
billionfold, and one stream may be up to 1e9 weaker than the others, so
that a rank cutoff which drops a real stream fails the tolerance.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmimo import cancellation, link, run_scenario
from fdmimo.cancellation import (
    RegressorRankError,
    _fit,
    _projection,
    _regressors,
    apply_digital_canceller,
    cancel_slot,
    train_digital_canceller,
)
from fdmimo.cli import default_scenario
from fdmimo.config import dbm_to_watt

TOLERANCE = 1e-9


def _cn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def slots(draw):
    """(burst, stacked receive rows, per-member linear seeds) of one slot.

    The burst has 1-8 chains carrying as many or fewer streams at a power
    in [-10, 50] dBm, one of two or more streams scaled by 10**U(-9, 0),
    and may have one silent (all-zero) chain; the rows are its linear and
    cubic leakage plus noise at a random level, for 1-4 members of 1-8
    receive chains each.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chains, rx, members = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    streams = draw(st.integers(1, chains))
    samples = 3 * chains + draw(st.integers(0, 300))
    amp = np.sqrt(dbm_to_watt(draw(st.floats(-10.0, 50.0))) / chains)
    symbols = _cn(rng, streams, samples)
    if streams > 1:
        symbols[-1] *= 10.0 ** draw(st.floats(-9.0, 0.0))
    x = amp * (_cn(rng, chains, streams) @ symbols) / np.sqrt(streams)
    silent = draw(st.one_of(st.none(), st.integers(0, chains - 1)))
    if silent is not None:
        x[silent] = 0.0
    cubic = x * np.abs(x) ** 2
    noise = 10.0 ** draw(st.floats(-12.0, 0.0))
    y = np.stack([
        _cn(rng, rx, chains) @ x + 1e-3 * (_cn(rng, rx, chains) @ cubic)
        + noise * amp * _cn(rng, rx, samples)
        for _ in range(members)
    ])
    seed = _cn(rng, members, rx, chains)
    return x, y, seed


def _identified(x, y, seed):
    try:
        train_digital_canceller(x, y, seed)
    except RegressorRankError:
        return False
    return True


def _projected(x):
    """Whether `cancel_slot` takes a projection for burst `x`."""
    return _projection(x, _regressors(x)) is not None


def _never_projected(x):
    """Whether burst `x` has a silent chain, one stream on two or more
    chains, or a singular value too far above rounding level to drop and
    too far below the others for its eigenvalue to count as a stream.

    With level = max(n, T) eps, the rank by singular values counts those
    above sigma_max level, as `np.linalg.matrix_rank` does, and an
    eigenvalue of x x^H counts when it is above lambda_max level, which is
    sigma above sigma_max sqrt(level).  The band keeps a factor 10 from
    either edge.
    """
    if not np.all(np.any(x != 0, axis=1)):
        return True
    sv = np.linalg.svd(x, compute_uv=False)
    sv /= sv[0]
    level = max(x.shape) * np.finfo(float).eps
    one_stream = len(x) >= 2 and np.count_nonzero(sv > level) == 1
    ambiguous = np.any((sv > 10 * level) & (sv < np.sqrt(level) / 10))
    return one_stream or ambiguous


def _lstsq_fit_and_apply(x, y, seed):
    """The minimum-norm fit on all rows of `y` at once, then its apply."""
    rows, seeds = y.reshape(-1, y.shape[-1]), seed.reshape(-1, x.shape[0])
    return apply_digital_canceller(_fit(_regressors(x), x, rows, seeds), x, rows).reshape(y.shape)


@settings(max_examples=150, deadline=None)
@given(slot=slots())
def test_cancel_slot_is_the_lstsq_fit_and_apply(slot):
    """Within the tolerance for a burst that identifies every coefficient
    (measured at most 5e-11 over 4000 examples) or that `cancel_slot`
    projects (at most 1.5e-11 over 50,000 bursts of two or more streams on
    more chains), and exactly for one it does not project.  A burst that
    `_never_projected` names is not projected, and its rows come back
    finite."""
    x, y, seed = slot
    z = cancel_slot(x, y, seed)
    assert z.shape == y.shape
    for k in range(len(y)):
        if _identified(x, y[k], seed[k]):
            ref = apply_digital_canceller(train_digital_canceller(x, y[k], seed[k]), x, y[k])
            assert np.abs(z[k] - ref).max() <= TOLERANCE * np.abs(y[k]).max()
    fit = _lstsq_fit_and_apply(x, y, seed)
    projected = _projected(x)
    if _never_projected(x):
        assert not projected
        assert np.isfinite(z).all()
    if projected:
        for k in range(len(y)):
            assert np.abs(z[k] - fit[k]).max() <= TOLERANCE * np.abs(y[k]).max()
    else:
        assert np.array_equal(z, fit)


@settings(max_examples=150, deadline=None)
@given(slot=slots())
def test_stacked_members_are_cancelled_as_alone(slot):
    x, y, seed = slot
    if not _projected(x):
        return  # one lstsq over all rows; a lone row rounds unlike a stack
    per_member = cancel_slot(x, y, seed)
    shared = cancel_slot(x, y, seed[0])
    for k in range(len(y)):
        assert np.array_equal(per_member[k], cancel_slot(x, y[k], seed[k]))
        assert np.array_equal(shared[k], cancel_slot(x, y[k], seed[0]))


@settings(max_examples=60, deadline=None)
@given(slot=slots())
def test_cancel_slot_writes_no_input(slot):
    x, y, seed = slot
    kept = [a.copy() for a in (x, y, seed)]
    for a in (x, y, seed):
        a.setflags(write=False)
    cancel_slot(x, y, seed)
    cancel_slot(x, y[0], seed[0])
    for a, b in zip((x, y, seed), kept):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("code", "abcd")
def test_default_configs_fit_only_one_stream_bursts(code, count_calls):
    """Every burst of a, b and c (as many streams as chains, or two or
    more streams on more chains) is projected; every burst of d (one
    stream on two chains) takes the `lstsq` fit."""
    fits = count_calls(cancellation, "_fit")
    slots = count_calls(link, "cancel_slot")
    run_scenario(dataclasses.replace(default_scenario(code), trials=2), jobs=1)
    assert len(slots) > 0
    assert len(fits) == (len(slots) if code == "d" else 0)
