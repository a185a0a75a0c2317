import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from estlab.covariance import Chain, CovSpec, make_covariance
from estlab.errors import InvalidSpec, NotPositiveDefinite
from estlab.fisher import fi_eigen

from conftest import Dense, build, chain_matrix

# The spectrum keeps its tridiagonal K^-1 eigensolver; the factor is held tighter.
RTOL = 1e-10
FACTOR_RTOL = 1e-12

# eta = 0 (the white limit) or log-uniform over [1e-2, 1e6].
etas = st.one_of(st.just(0.0), st.floats(-2.0, 6.0).map(lambda x: 10.0**x))


@st.composite
def _specs(draw):
    """Any model at n <= 1024 (log-uniform), solvable with c in (-a/n, 0) too."""
    kind = draw(st.sampled_from(["solvable", "white", "exponential"]))
    n = int(math.exp(draw(st.floats(0.0, math.log(1024.0)))))
    a = draw(st.floats(0.05, 20.0))
    c = draw(st.floats(0.0, 1.0))
    if kind == "solvable" and draw(st.booleans()):
        # Down to a + n*c = 0.01 a: negative offsets, condition number <= 100.
        c = draw(st.floats(-0.99, 0.0, exclude_max=True)) * a / n
    eta = draw(etas) if kind == "exponential" else None
    return CovSpec(kind, a, c, n, eta=eta)


def _columns(n: int, seed: int) -> np.ndarray:
    """Flat, alternating and one random right-hand side."""
    alternating = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    noise = np.random.default_rng(seed).normal(size=n)
    return np.column_stack([np.ones(n), alternating, noise])


def _assert_factor_matches_dense(chain, dense, seed: int) -> None:
    U = _columns(dense.dim, seed)
    np.testing.assert_allclose(chain.quad(U), dense.quad(U), rtol=FACTOR_RTOL)
    np.testing.assert_allclose(chain.form(U), dense.form(U), rtol=FACTOR_RTOL)
    _assert_solves_match_dense(chain, dense, U, FACTOR_RTOL)


def _assert_solves_match_dense(chain, dense, U, rtol: float) -> None:
    # The loading's norm is the estimate's standard deviation, so compare
    # columns by norm; C^-1 U in the C-norm, the norm in which an error in
    # the ml weights moves an estimate (a per-entry error of C^-1 U grows
    # with the condition number, in both implementations alike).
    got, want = chain.loading(U), dense.loading(U)
    assert (np.linalg.norm(got - want, axis=0)
            <= rtol * np.linalg.norm(want, axis=0)).all()
    got, want = chain.solve(U), dense.solve(U)
    assert (dense.form(got - want) <= rtol**2 * dense.form(want)).all()


def _assert_spectrum_matches_dense(chain, dense) -> None:
    n = dense.dim
    ones = np.ones(n)
    report = fi_eigen(chain.spectrum())
    assert report.value == pytest.approx(float(dense.quad(ones)), rel=RTOL)
    assert report.equal_weight_variance == pytest.approx(
        float(dense.form(ones)) / (n * n), rel=RTOL
    )


@settings(deadline=None, max_examples=60)
@given(spec=_specs(), seed=st.integers(0, 2**32 - 1), data=st.data())
@example(spec=CovSpec("white", 0.3, 0.7, 200), seed=1, data=None)
@example(spec=CovSpec("exponential", 1.0, 0.4, 200, eta=0.0), seed=2, data=None)
@example(spec=CovSpec("solvable", 0.05, 1.0, 300), seed=3, data=None)
@example(spec=CovSpec("solvable", 2.0, -0.5 * 2.0 / 300, 300), seed=4, data=None)
def test_chain_matches_dense(spec, seed, data):
    chain = make_covariance(spec)
    dense = Dense(build(spec))
    _assert_factor_matches_dense(chain, dense, seed)
    n = spec.n
    if data is None:
        kept = list(range(0, n, 3))
    else:
        kept = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="kept"))
    _assert_factor_matches_dense(chain.restrict(kept), dense.restrict(kept), seed)
    _assert_spectrum_matches_dense(chain, dense)
    _assert_spectrum_matches_dense(chain.restrict(kept), dense.restrict(kept))


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
    U = _columns(n, seed)
    np.testing.assert_allclose(structured.quad(U), dense.quad(U), rtol=RTOL)
    np.testing.assert_allclose(structured.form(U), dense.form(U), rtol=RTOL)
    _assert_spectrum_matches_dense(structured, dense)
    kept = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="kept"))
    sub, dense_sub = structured.restrict(kept), dense.restrict(kept)
    U = _columns(len(kept), seed)
    np.testing.assert_allclose(sub.quad(U), dense_sub.quad(U), rtol=RTOL)
    np.testing.assert_allclose(sub.form(U), dense_sub.form(U), rtol=RTOL)
    _assert_spectrum_matches_dense(sub, dense_sub)


def test_exponential_matches_dense_at_n4096():
    spec = CovSpec("exponential", 0.05, 1.0, 4096, eta=1e6)
    structured = make_covariance(spec)
    dense = Dense(build(spec))
    U = _columns(4096, seed=7)
    np.testing.assert_allclose(structured.quad(U), dense.quad(U), rtol=RTOL)
    np.testing.assert_allclose(structured.form(U), dense.form(U), rtol=RTOL)
    report = fi_eigen(structured.spectrum())
    assert report.value == pytest.approx(float(dense.quad(U[:, 0])), rel=RTOL)
    kept = np.arange(0, 4096, 7)
    np.testing.assert_allclose(
        structured.restrict(kept).quad(U[kept]), dense.restrict(kept).quad(U[kept]),
        rtol=RTOL,
    )
    # At condition number 8e4 the dense oracle is itself about 1e-12 off
    # (its alternating quad by 1.0e-12, the factor's by 2e-14, against a
    # solve refined with long-double residuals), so every operation is held
    # to RTOL here and to FACTOR_RTOL at n <= 1024 above.
    _assert_solves_match_dense(structured, dense, U, RTOL)


def test_eta_grid_is_the_per_eta_results_stacked():
    grid = np.array([0.0, 0.3, 40.0, 2e5, np.inf])
    U = _columns(300, seed=1)
    batched = Chain(1.2, 0.4, grid, np.arange(300))
    for k, eta in enumerate(grid):
        single = Chain(1.2, 0.4, eta, np.arange(300))
        for op in ("quad", "form", "solve", "loading"):
            np.testing.assert_allclose(
                getattr(batched, op)(U)[k], getattr(single, op)(U), rtol=1e-15
            )
    assert batched.quad(U[:, 0]).shape == (5,)
    assert batched.solve(U).shape == (5, 300, 3)
    assert batched.restrict([0, 5, 9]).quad(np.ones(3)).shape == (5,)


def test_single_slot_and_white_limit_are_exact():
    one = Chain(2.0, 0.5, 3.0, [0.0])
    assert float(one.quad(np.array([2.0]))) == 4.0 / 2.5
    assert float(one.form(np.array([2.0]))) == 4.0 * 2.5
    white = Chain(1.0, 0.05, 0.0, np.arange(1000))
    assert float(white.quad(np.ones(1000))) == pytest.approx(1000 / 1.05, rel=1e-15)
    spectrum = white.spectrum()
    assert np.allclose(spectrum.sigmasq, 1.05, rtol=1e-15)


def test_make_covariance_picks_by_kind():
    assert make_covariance(CovSpec("solvable", 1.0, 0.1, 5)).eta == np.inf
    assert make_covariance(CovSpec("white", 1.0, 0.1, 5)).eta == 0.0
    assert make_covariance(CovSpec("exponential", 1.0, 0.1, 5, eta=2.0)).eta == 2.0


# (a, c, eta) of chains on three slots, singular cases included: CovSpec
# rejects the ones singular by construction, so the chain is built directly.
@pytest.mark.parametrize("a,c,eta,accepted", [
    # The exponential cases keep their eta as id.
    pytest.param(0.0, 1.0, 1.0, True, id="1.0"),
    pytest.param(0.0, 1.0, 1e12, False, id="1000000000000.0"),
    pytest.param(0.0, 1.0, np.inf, False, id="solvable-a0"),
    pytest.param(1.0, -0.3, np.inf, True, id="solvable-c-negative"),
    pytest.param(1.0, -1.0 / 3.0, np.inf, False, id="solvable-c-boundary"),
    pytest.param(0.0, 0.0, 0.0, False, id="white-zero"),
    pytest.param(0.0, 1e-3, 0.0, True, id="white-a0"),
])
def test_zero_white_noise_accepted_exactly_when_dense_is(a, c, eta, accepted):
    def accepts(make):
        try:
            make().quad(np.ones(3))
        except NotPositiveDefinite:
            return False
        return True

    def chain():
        return Chain(a, c, eta, np.arange(3))

    assert accepts(chain) == accepts(lambda: Dense(chain_matrix(a, c, eta, 3)))
    assert accepts(chain) == accepted


def test_validation():
    with pytest.raises(NotPositiveDefinite):
        Chain(0.0, 0.0, 1.0, np.arange(4))
    with pytest.raises(InvalidSpec):
        Chain(1.0, 0.1, [-1.0], np.arange(4))
    with pytest.raises(InvalidSpec):
        Chain(1.0, 0.1, [np.nan], np.arange(4))
    with pytest.raises(InvalidSpec):
        Chain(1.0, 0.1, 1.0, [0.0, 2.0, 1.0])
    cov = Chain(1.0, 0.1, [1.0, 2.0], np.arange(4))
    with pytest.raises(InvalidSpec, match="expected a vector or columns of length 4"):
        cov.quad(np.ones(3))
    with pytest.raises(InvalidSpec, match="retained indices must be strictly increasing"):
        cov.restrict([2, 1])
    with pytest.raises(InvalidSpec, match=r"retained indices must lie in \[0, 3\]"):
        cov.restrict([0, 4])
    with pytest.raises(InvalidSpec):
        cov.spectrum()
    # eta = inf has no tridiagonal K^-1: its spectrum is the closed form.
    spectrum = Chain(1.0, 0.1, np.inf, np.arange(4)).spectrum()
    assert np.array_equal(spectrum.sigmasq, [4 * 0.1 + 1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(spectrum.weights, [1.0, 0.0, 0.0, 0.0])
