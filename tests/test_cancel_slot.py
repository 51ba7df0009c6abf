"""`cancel_slot`, the digital canceller of a receive slot, against the fit.

A burst that identifies every coefficient gets the unique least-squares
residual from a projection on the regressors' Gram; it must match the
`lstsq` fit and apply within 1e-9 of the largest receive sample (the
README's rate tolerance, taken relative to the slot's scale), and give
each member of a stack exactly what it gives that member alone.  A
burst that `cancel_slot` does not project must still take the
minimum-norm fit and apply, bit for bit; one with fewer streams than
chains, or with a silent chain, is never projected.  Bursts span the
power sweep of the scenarios, -10 to 50 dBm, over which the amplitude of
x grows a thousandfold and that of the x |x|^2 regressors a billionfold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmimo.cancellation import (
    RegressorRankError,
    _fit,
    _gram_root,
    _regressors,
    apply_digital_canceller,
    cancel_slot,
    train_digital_canceller,
)
from fdmimo.impairments import dbm_to_watt

TOLERANCE = 1e-9


def _cn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def slots(draw):
    """(burst, stacked receive rows, per-member linear seeds) of one slot.

    The burst has 1-8 chains carrying as many or fewer streams at a power
    in [-10, 50] dBm, and may have one silent (all-zero) chain; the rows
    are its linear and cubic leakage plus noise at a random level, for 1-4
    members of 1-8 receive chains each.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chains, rx, members = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    streams = draw(st.integers(1, chains))
    samples = 3 * chains + draw(st.integers(0, 300))
    amp = np.sqrt(dbm_to_watt(draw(st.floats(-10.0, 50.0))) / chains)
    x = amp * (_cn(rng, chains, streams) @ _cn(rng, streams, samples)) / np.sqrt(streams)
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
    """Whether `cancel_slot` takes the Gram projection for burst `x`."""
    return _gram_root(_regressors(x)) is not None


def _lstsq_fit_and_apply(x, y, seed):
    """The minimum-norm fit on all rows of `y` at once, then its apply."""
    rows, seeds = y.reshape(-1, y.shape[-1]), seed.reshape(-1, x.shape[0])
    return apply_digital_canceller(_fit(_regressors(x), x, rows, seeds), x, rows).reshape(y.shape)


@settings(max_examples=150, deadline=None)
@given(slot=slots())
def test_cancel_slot_is_the_lstsq_fit_and_apply(slot):
    """Within the tolerance for a burst that identifies every coefficient
    (measured at most 5e-11 over 4000 examples), and exactly for one that
    `cancel_slot` does not project (rank-deficient or ill-conditioned).
    A dependent burst (fewer streams than chains) or one with a silent
    chain is never projected, and its rows come back finite."""
    x, y, seed = slot
    z = cancel_slot(x, y, seed)
    assert z.shape == y.shape
    for k in range(len(y)):
        if _identified(x, y[k], seed[k]):
            ref = apply_digital_canceller(train_digital_canceller(x, y[k], seed[k]), x, y[k])
            assert np.abs(z[k] - ref).max() <= TOLERANCE * np.abs(y[k]).max()
    dependent = np.linalg.matrix_rank(x) < len(x)
    silent = not np.all(np.any(x != 0, axis=1))
    if dependent or silent:
        assert not _projected(x)
        assert np.isfinite(z).all()
    if not _projected(x):
        assert np.array_equal(z, _lstsq_fit_and_apply(x, y, seed))


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
