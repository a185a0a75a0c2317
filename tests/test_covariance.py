import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from estlab.covariance import Chain, CovSpec, WeightSpectrum, _e_terms, make_covariance
from estlab.errors import InvalidSpec, NotPositiveDefinite
from estlab.fisher import fi_eigen, fi_matched

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
    fi, var = fi_eigen(chain.spectrum())
    assert fi == pytest.approx(float(dense.quad(ones)), rel=RTOL)
    assert var == pytest.approx(
        float(dense.form(ones)) / (n * n), rel=RTOL
    )


def _draw_spaced(data, n: int) -> list[int]:
    """Equally spaced slots, drawn as a start and a step: the times spectrum() takes."""
    start = data.draw(st.integers(0, n - 1), label="start")
    return list(range(start, n, data.draw(st.integers(1, n), label="step")))


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
        kept = spaced = list(range(0, n, 3))
    else:
        kept = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="kept"))
        spaced = _draw_spaced(data, n)
    _assert_factor_matches_dense(chain.restrict(kept), dense.restrict(kept), seed)
    _assert_spectrum_matches_dense(chain, dense)
    _assert_spectrum_matches_dense(chain.restrict(spaced), dense.restrict(spaced))


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
    spaced = _draw_spaced(data, n)
    _assert_spectrum_matches_dense(structured.restrict(spaced), dense.restrict(spaced))


def test_exponential_matches_dense_at_n4096():
    spec = CovSpec("exponential", 0.05, 1.0, 4096, eta=1e6)
    structured = make_covariance(spec)
    dense = Dense(build(spec))
    U = _columns(4096, seed=7)
    np.testing.assert_allclose(structured.quad(U), dense.quad(U), rtol=RTOL)
    np.testing.assert_allclose(structured.form(U), dense.form(U), rtol=RTOL)
    fi, _ = fi_eigen(structured.spectrum())
    assert fi == pytest.approx(float(dense.quad(U[:, 0])), rel=RTOL)
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


def _full_eigenproblem(chain) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues of K^-1, weights) from all n eigenvectors of the full
    tridiagonal K^-1, each eigenvalue its Rayleigh quotient: the one size-n
    problem that the two half-size blocks of Chain.spectrum replace."""
    rho, one_minus = chain._phi[0, 0], chain._one_minus[0, 0]
    one_minus_sq = one_minus * (1.0 + rho)
    diag = np.zeros(chain.dim)
    diag[0] = 1.0
    diag[1:] += 1.0 / one_minus_sq
    diag[:-1] += rho * rho / one_minus_sq
    _, vectors = eigh_tridiagonal(diag, -rho / one_minus_sq)
    steps = np.diff(vectors, axis=0)
    steps += one_minus[:, None] * vectors[:-1]
    kinv = vectors[0] ** 2 + (steps * steps / one_minus_sq[:, None]).sum(axis=0)
    sums = vectors.sum(axis=0)
    return kinv, sums * sums / chain.dim


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 11, 100, 101, 999, 1000, 1999, 2000])
def test_half_size_blocks_stay_near_the_full_eigenproblem(n):
    # The fisher eigen_weighted row, (fi, var), from the two half-size blocks
    # against the full-size problem they replace, a in [0.05, 20].
    for eta in (1e-2, 1.0, 1e2, 1e4, 1e6, 1e8):
        kinv, weights = _full_eigenproblem(Chain(1.0, 1.0, eta, np.arange(n)))
        for a in (0.05, 1.0, 20.0):
            np.testing.assert_allclose(
                fi_eigen(Chain(a, 1.0, eta, np.arange(n)).spectrum()),
                fi_eigen(WeightSpectrum(a + 1.0 / kinv, weights)),
                rtol=1e-11, atol=0.0, err_msg=f"eta={eta}, a={a}")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 16, 33, 128, 257])
@pytest.mark.parametrize("eta", [0.3, 7.0, 1e3])
def test_spectrum_matches_dense_eigendecomposition(n, eta):
    chain = Chain(0.4, 1.3, eta, np.arange(n))
    dense = Dense(chain_matrix(0.4, 1.3, eta, n))
    _assert_spectrum_matches_dense(chain, dense)
    got, want = chain.spectrum(), dense.spectrum()
    # A mode's weight is held looser than fi and var: near the white limit the
    # top modes lie about 2e-5 apart, so either solver splits their weight to
    # about 1e-16 / 2e-5 (eta = 0.3, n = 257: 1.7e-12 apart).
    got_order, want_order = np.argsort(got.sigmasq), np.argsort(want.sigmasq)
    np.testing.assert_allclose(got.sigmasq[got_order], want.sigmasq[want_order], rtol=RTOL)
    np.testing.assert_allclose(got.weights[got_order], want.weights[want_order],
                               rtol=0.0, atol=1e-10)
    # Each antisymmetric mode is orthogonal to the flat vector: weight exactly 0.
    assert np.count_nonzero(got.weights) == (n + 1) // 2
    assert (got.weights[(n + 1) // 2:] == 0.0).all()


def test_spectrum_needs_equally_spaced_times():
    with pytest.raises(InvalidSpec, match="spectrum at a finite eta needs equally spaced"):
        Chain(1.0, 0.1, 2.0, [0.0, 1.0, 3.0]).spectrum()
    with pytest.raises(InvalidSpec, match="spectrum at a finite eta needs equally spaced"):
        Chain(1.0, 0.1, 2.0, np.arange(10)).restrict([0, 1, 2, 4]).spectrum()
    # Any equal step will do, and the closed forms need no grid.
    fi, _ = fi_eigen(Chain(1.0, 0.1, 2.0, np.arange(0.0, 30.0, 3.0)).spectrum())
    assert fi == pytest.approx(float(Chain(1.0, 0.1, 2.0 / 3.0, np.arange(10)).quad(np.ones(10))),
                               rel=RTOL)
    for eta in (0.0, np.inf):
        Chain(1.0, 0.1, eta, [0.0, 1.0, 3.0]).spectrum()


def test_spectrum_forms_no_n_by_n_array():
    # Two half-size blocks: about n^2/2 doubles at the peak (16 MB at
    # n = 2000), where all n eigenvectors and their workspace took 92 MB.
    chain = Chain(1.0, 0.05, 100.0, np.arange(2000))
    tracemalloc.start()
    try:
        chain.spectrum()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


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


# An eta grid of one to three points from 0, inf and the log-uniform etas.
eta_grids = st.lists(st.one_of(etas, st.just(math.inf)), min_size=1, max_size=3)


@st.composite
def _segment_sets(draw, n: int) -> list[list[int]]:
    """1-40 strictly increasing index sets of slots below n; they may overlap."""
    return [
        sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 12))))
        for _ in range(draw(st.integers(1, 40)))
    ]


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 120),
    a=st.floats(0.05, 20.0),
    c=st.floats(0.0, 1.0),
    eta=eta_grids,
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@example(n=30, a=1.0, c=0.4, eta=[0.0, math.inf], seed=1, data=None)
def test_segments_equal_separate_chains(n, a, c, eta, seed, data):
    # Exactly: every segment's quad, form and fi_matched is its own chain's,
    # and solve and loading are the separate chains' results, concatenated.
    sets = [[3], list(range(0, n, 2)), [n - 1], list(range(n))] if data is None else (
        data.draw(_segment_sets(n), label="sets"))
    whole = Chain(a, c, eta, np.arange(n) * 0.7)
    segmented = whole.restrict(sets)
    separate = [whole.restrict(s) for s in sets]
    assert len(segmented.segments) == len(sets)
    U = np.random.default_rng(seed).normal(size=(segmented.dim, 2))
    U[:, 0] = np.abs(U[:, 0]) + 0.5  # a mean vector nonzero on every segment
    parts = [U[s] for s in segmented.segments]
    for op in ("quad", "form"):
        got = getattr(segmented, op)(U)
        assert got.shape == (len(eta), len(sets), 2)
        for k, (chain, part) in enumerate(zip(separate, parts)):
            assert np.array_equal(got[:, k], getattr(chain, op)(part))
    for op in ("solve", "loading"):
        want = np.concatenate([getattr(chain, op)(part) for chain, part in zip(separate, parts)],
                              axis=1)
        assert np.array_equal(getattr(segmented, op)(U), want)
    for mu in (U, U[:, 0]):
        fi, iv = fi_matched(segmented, mu, 1.7)
        for k, (chain, s) in enumerate(zip(separate, segmented.segments)):
            want_fi, want_iv = fi_matched(chain, mu[s], 1.7)
            assert np.array_equal(fi[:, k], want_fi) and np.array_equal(iv[:, k], want_iv)
    # At a single eta the eta axis drops, as for an unsegmented chain.
    single = Chain(a, c, eta[0], np.arange(n)).restrict(sets)
    assert single.quad(U[:, 0]).shape == (len(sets),)


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(1, 200),
    a=st.floats(0.05, 20.0),
    c=st.floats(0.0, 1.0),
    eta=st.one_of(etas, st.just(math.inf)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_segmented_chain_matches_block_diagonal_dense(n, a, c, eta, seed, data):
    sets = data.draw(_segment_sets(n), label="sets")
    chain = Chain(a, c, eta, np.arange(n)).restrict(sets)
    dense = Dense(chain_matrix(a, c, eta, n)).restrict(sets)
    assert chain.segments == dense.segments
    _assert_factor_matches_dense(chain, dense, seed)


@settings(deadline=None, max_examples=60)
@given(
    a=st.floats(0.05, 20.0),
    c=st.floats(0.0, 1.0),
    eta=st.one_of(etas, st.just(math.inf)),
    prefix=st.lists(st.floats(0.1, 10.0), max_size=20),
    n=st.integers(0, 3000),
)
def test_riccati_stop_at_the_fixed_point_is_exact(a, c, eta, prefix, n):
    # Irregular gaps, then n equal ones: stopping once E repeats on the equal
    # gaps gives the floats of the loop run to the end, and so every bit of
    # every contraction.
    times = np.cumsum([0.0, *prefix, *[1.0] * n])
    chain = Chain(a, c, [eta], times)
    with patch("estlab.covariance._e_terms",
               lambda a, c, fresh, kept, tail: _e_terms(a, c, fresh, kept, len(fresh))):
        whole = Chain(a, c, [eta], times)
    U = _columns(times.size, seed=n)
    for op in ("quad", "form", "solve", "loading"):
        assert np.array_equal(getattr(chain, op)(U), getattr(whole, op)(U))


def _alternating_form(a: float, eta: float, n: int) -> float:
    """a*n + g'Kg for alternating signs g, c = 1, in positive terms only.

    g'Kg = n(1 - rho)/(1 + rho) + 2 rho t/(1 + rho)^2 with t = 1 - (-rho)^n:
    -expm1(-n/eta) for even n and 1 + rho^n for odd n.
    """
    rho = math.exp(-1.0 / eta)
    one_minus = -math.expm1(-1.0 / eta)
    t = -math.expm1(-n / eta) if n % 2 == 0 else 1.0 + rho**n
    return a * n + n * one_minus / (1.0 + rho) + 2.0 * rho * t / (1.0 + rho) ** 2


ALTERNATING_ETAS = [0.5, 1.0, 1e3, 1e6, 1e8, 1e9]


@pytest.mark.parametrize("a", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("n", [2, 3, 10, 11, 400, 1001, 20000])
def test_alternating_form_does_not_cancel(n, a):
    # Alternating u makes the model's terms a u'u + c u'(A^-1 u + A'^-1 u - u)
    # cancel as eta grows (their sum is 8.3e-8 off at a = 0, eta = 1e9).
    g = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    want = np.array([_alternating_form(a, eta, n) for eta in ALTERNATING_ETAS])
    grid = Chain(a, 1.0, ALTERNATING_ETAS, np.arange(n)).form(g)
    single = [float(Chain(a, 1.0, eta, np.arange(n)).form(g)) for eta in ALTERNATING_ETAS]
    np.testing.assert_allclose(grid, want, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(single, want, rtol=1e-13, atol=0.0)


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
    # Every set of a segmented restriction obeys the same rule.
    with pytest.raises(InvalidSpec, match="must be a non-empty vector"):
        cov.restrict([[0, 1], []])
    with pytest.raises(InvalidSpec, match="retained indices must be strictly increasing"):
        cov.restrict([[0, 1], [3, 3]])
    with pytest.raises(InvalidSpec, match="retained indices must be strictly increasing"):
        cov.restrict([[2, 1], [0]])
    with pytest.raises(InvalidSpec, match="segment starts"):
        Chain(1.0, 0.1, 1.0, np.arange(4), starts=[1, 2])
    with pytest.raises(InvalidSpec, match="segment starts"):
        Chain(1.0, 0.1, 1.0, np.arange(4), starts=[0, 2, 2])
    with pytest.raises(InvalidSpec, match="sample times must be strictly increasing"):
        Chain(1.0, 0.1, 1.0, [0.0, 1.0, 3.0, 2.0], starts=[0, 2])
    with pytest.raises(InvalidSpec):
        cov.restrict([[0, 1], [2]]).spectrum()
    with pytest.raises(InvalidSpec):
        cov.spectrum()
    # eta = inf has no tridiagonal K^-1: its spectrum is the closed form.
    spectrum = Chain(1.0, 0.1, np.inf, np.arange(4)).spectrum()
    assert np.array_equal(spectrum.sigmasq, [4 * 0.1 + 1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(spectrum.weights, [1.0, 0.0, 0.0, 0.0])
