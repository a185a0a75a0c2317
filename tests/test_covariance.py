import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estlab.covariance import Dense, Exponential, make_covariance
from estlab.covmodel import CovSpec, build
from estlab.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidSpec,
    NotPositiveDefinite,
)
from estlab.fisher import fi_eigen

RTOL = 1e-10

# eta = 0 (the white limit) or log-uniform over [1e-2, 1e6].
etas = st.one_of(st.just(0.0), st.floats(-2.0, 6.0).map(lambda x: 10.0**x))


def _columns(n: int, seed: int) -> np.ndarray:
    """Flat, alternating and one random right-hand side."""
    alternating = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    noise = np.random.default_rng(seed).normal(size=n)
    return np.column_stack([np.ones(n), alternating, noise])


def _assert_matches_dense(structured, dense, seed: int) -> None:
    n = dense.dim
    U = _columns(n, seed)
    np.testing.assert_allclose(structured.quad(U), dense.quad(U), rtol=RTOL)
    np.testing.assert_allclose(structured.form(U), dense.form(U), rtol=RTOL)
    # Spectrum FI and plain-average variance against the dense contractions.
    report = fi_eigen(structured.spectrum(), n)
    assert report.value == pytest.approx(float(dense.quad(U[:, 0])), rel=RTOL)
    assert report.equal_weight_variance == pytest.approx(
        float(dense.form(U[:, 0])) / (n * n), rel=RTOL
    )


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 512),
    a=st.floats(0.05, 20.0),
    c=st.floats(0.0, 1.0),
    eta=etas,
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_exponential_matches_dense(n, a, c, eta, seed, data):
    spec = CovSpec("exponential", a, c, n, eta=eta)
    structured = make_covariance(spec)
    dense = Dense(build(spec))
    assert isinstance(structured, Exponential)
    _assert_matches_dense(structured, dense, seed)
    kept = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="kept"))
    _assert_matches_dense(structured.restrict(kept), dense.restrict(kept), seed)


def test_exponential_matches_dense_at_n4096():
    spec = CovSpec("exponential", 0.05, 1.0, 4096, eta=1e6)
    structured = make_covariance(spec)
    dense = Dense(build(spec))
    U = _columns(4096, seed=7)
    np.testing.assert_allclose(structured.quad(U), dense.quad(U), rtol=RTOL)
    np.testing.assert_allclose(structured.form(U), dense.form(U), rtol=RTOL)
    report = fi_eigen(structured.spectrum(), 4096)
    assert report.value == pytest.approx(float(dense.quad(U[:, 0])), rel=RTOL)
    kept = np.arange(0, 4096, 7)
    np.testing.assert_allclose(
        structured.restrict(kept).quad(U[kept]), dense.restrict(kept).quad(U[kept]),
        rtol=RTOL,
    )


def test_eta_grid_is_the_per_eta_results_stacked():
    grid = np.array([0.0, 0.3, 40.0, 2e5])
    U = _columns(300, seed=1)
    batched = Exponential(1.2, 0.4, grid, np.arange(300))
    for k, eta in enumerate(grid):
        single = Exponential(1.2, 0.4, eta, np.arange(300))
        np.testing.assert_allclose(batched.quad(U)[k], single.quad(U), rtol=1e-15)
        np.testing.assert_allclose(batched.form(U)[k], single.form(U), rtol=1e-15)
    assert batched.quad(U[:, 0]).shape == (4,)
    assert batched.restrict([0, 5, 9]).quad(np.ones(3)).shape == (4,)


def test_single_slot_and_white_limit_are_exact():
    one = Exponential(2.0, 0.5, 3.0, [0.0])
    assert float(one.quad(np.array([2.0]))) == 4.0 / 2.5
    assert float(one.form(np.array([2.0]))) == 4.0 * 2.5
    white = Exponential(1.0, 0.05, 0.0, np.arange(1000))
    assert float(white.quad(np.ones(1000))) == pytest.approx(1000 / 1.05, rel=1e-15)
    spectrum = white.spectrum()
    assert np.allclose(spectrum.sigmasq, 1.05, rtol=1e-15)


def test_make_covariance_picks_by_kind():
    assert isinstance(make_covariance(CovSpec("solvable", 1.0, 0.1, 5)), Dense)
    assert isinstance(make_covariance(CovSpec("white", 1.0, 0.1, 5)), Dense)
    assert isinstance(
        make_covariance(CovSpec("exponential", 1.0, 0.1, 5, eta=2.0)), Exponential
    )


@pytest.mark.parametrize("eta", [1.0, 1e12])
def test_zero_white_noise_accepted_exactly_when_dense_is(eta):
    spec = CovSpec("exponential", 0.0, 1.0, 3, eta=eta)

    def accepts(make):
        try:
            make().quad(np.ones(3))
        except NotPositiveDefinite:
            return False
        return True

    assert accepts(lambda: make_covariance(spec)) == accepts(lambda: Dense(build(spec)))
    assert accepts(lambda: make_covariance(spec)) == (eta == 1.0)


def test_validation():
    with pytest.raises(NotPositiveDefinite):
        Exponential(0.0, 0.0, 1.0, np.arange(4))
    with pytest.raises(InvalidSpec):
        Exponential(1.0, 0.1, [-1.0], np.arange(4))
    with pytest.raises(InvalidSpec):
        Exponential(1.0, 0.1, 1.0, [0.0, 2.0, 1.0])
    cov = Exponential(1.0, 0.1, [1.0, 2.0], np.arange(4))
    with pytest.raises(DimensionMismatch):
        cov.quad(np.ones(3))
    with pytest.raises(IndexOutOfRange):
        cov.restrict([2, 1])
    with pytest.raises(IndexOutOfRange):
        cov.restrict([0, 4])
    with pytest.raises(InvalidSpec):
        cov.spectrum()
