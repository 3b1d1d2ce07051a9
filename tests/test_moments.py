"""The moments read off one Gram matrix against the two-pass formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsft.covariance import build_covariance, epsilon_min
from pcsft.sampler import _BLOCK_ROWS, CHUNK_SIZE
from pcsft.quadratic import Moments, QuadraticForm, form_moments
from conftest import rand_selfadjoint, rand_state


def centred(x):
    """x minus its mean, centred a second time: the plain float64 mean is
    off by about eps * |mean|, which at offsets of 1e6 spreads would move
    fourth moments by 1e-10 relative, and a reference must be finer than
    the tolerance it checks (the corrected two-pass algorithm of Chan,
    Golub & LeVeque)."""
    d = x - x.mean()
    return d - d.mean()


def two_pass_cov(x, y):
    """The two-pass estimator: centre on the means, then sum."""
    n = x.shape[0]
    products = centred(x) * centred(y)
    return products.sum() / (n - 1), products.std(ddof=1) / np.sqrt(n)


def two_pass_mean(x):
    d = x - x.mean()
    return x.mean() + d.mean(), d.std(ddof=1) / np.sqrt(x.shape[0])


def accumulate(values, centre=None):
    """Moments of the columns of ``values`` (n, k) centred on ``centre``
    (the first row by default): the Gram matrix of [1, d, d²], d = value -
    centre, of each block of the tiling, summed in block order."""
    centre = values[0] if centre is None else centre
    gram = 0.0
    for start in range(0, values.shape[0], _BLOCK_ROWS):
        d = (values[start : start + _BLOCK_ROWS] - centre).T
        rows = np.vstack([np.ones((1, d.shape[1])), d, d**2])
        gram += rows @ rows.T
    return Moments(centre, gram)


@st.composite
def value_matrices(draw):
    """Correlated, skewed columns (like quadratic forms of Gaussians) at a
    random scale, each column offset by up to 1e6 of its spread; whole
    blocks plus a remainder."""
    blocks = draw(st.integers(0, 3))
    n = blocks * _BLOCK_ROWS + draw(st.integers(0 if blocks else 2, _BLOCK_ROWS - 1))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    mix = rng.standard_normal((k, k))
    z = rng.standard_normal((n, k)) @ mix
    values = (z + 0.5 * z**2) * scale
    offsets = draw(st.lists(st.floats(-1e6, 1e6), min_size=k, max_size=k))
    return values + np.asarray(offsets) * values.std(axis=0)


@settings(max_examples=60, deadline=None)
@given(value_matrices(), st.one_of(st.none(), st.floats(-5.0, 5.0)))
def test_matches_two_pass_formulas(values, spreads):
    # Centred on the first row, or on the column means plus ``spreads``
    # standard deviations: the estimates are the sample statistics
    # whatever the centre.
    centre = None if spreads is None else values.mean(axis=0) + spreads * values.std(axis=0)
    moments = accumulate(values, centre=centre)
    n, k = values.shape
    assert moments.count == n
    for i in range(k):
        x = values[:, i]
        value, se = two_pass_mean(x)
        est = moments.mean(i)
        assert est.n == n
        np.testing.assert_allclose(est.value, value, rtol=1e-10, atol=1e-10 * x.std())
        np.testing.assert_allclose(est.std_error, se, rtol=1e-10)
        for j in range(k):
            y = values[:, j]
            value, se = two_pass_cov(x, y)
            est = moments.cov(i, j)
            # Covariances near zero are set by cancellation: compare them
            # on the scale of the spreads, and squared standard errors on
            # the scale of the fourth moments.
            np.testing.assert_allclose(
                est.value, value, rtol=1e-10, atol=1e-10 * x.std() * y.std()
            )
            fourth = np.sum(centred(x) ** 2 * centred(y) ** 2) / (n * (n - 1))
            np.testing.assert_allclose(
                est.std_error**2, se**2, rtol=1e-10, atol=1e-10 * fourth
            )


def test_needs_two_samples():
    with pytest.raises(ValueError, match="at least 2 samples"):
        accumulate(np.array([[1.0]]), centre=[0.0])


def test_shifts_the_gram_once(monkeypatch):
    # The Gram moves onto the sample means once, when the Moments is
    # built, however many estimates read it.
    import pcsft.quadratic as quadratic

    calls = []
    real_shift_map = quadratic._shift_map
    monkeypatch.setattr(
        quadratic, "_shift_map", lambda delta: calls.append(delta) or real_shift_map(delta)
    )
    values = np.random.default_rng(122).standard_normal((100, 3))
    moments = accumulate(values)
    estimates = [moments.mean(i) for i in range(3)]
    estimates += [moments.cov(i, j) for i in range(3) for j in range(3)]
    assert len(calls) == 1
    assert all(est.n == 100 for est in estimates)


def test_bit_identical_for_worker_counts_one_to_three(set_workers):
    rng = np.random.default_rng(120)
    state = rand_state(rng, 3, 2)
    cov = build_covariance(state, epsilon_min(state) + 0.1)
    forms = [
        QuadraticForm(operator=rand_selfadjoint(rng, 3), side=1),
        QuadraticForm(operator=np.diag([1.0, 0.0, 0.5]), side=1),
        QuadraticForm(operator=rand_selfadjoint(rng, 2), side=2),
    ]
    count = 2 * CHUNK_SIZE + 3 * _BLOCK_ROWS + 123  # three chunks
    results = []
    for workers in (1, 2, 3):
        set_workers(workers)
        moments = form_moments(cov, seed=121, count=count, forms=forms)
        results.append(
            [moments.mean(i) for i in range(3)]
            + [moments.cov(i, j) for i in range(3) for j in range(3)]
        )
    assert results[0] == results[1] == results[2]
