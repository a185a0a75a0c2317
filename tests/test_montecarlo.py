import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import chi2

from estlab.covariance import CovSpec
from estlab.errors import EstlabError, InvalidSpec, NotPositiveDefinite
from estlab.estimators import ESTIMATOR_NAMES, Dataset, check_fits, estimator_weights
from estlab.matkernel import SymMatrix
from estlab.montecarlo import (
    BLOCK_TRIALS,
    GENERATOR_NAME,
    NORMAL_METHOD,
    _spawn_states,
    _trial_normals,
    run_trials,
)
from estlab.partition import direct_design, make_design

from conftest import (
    Dense,
    build,
    estimate_background_subtraction,
    estimate_equal_weight,
    estimate_ml,
    estimate_wva,
    estimate_wva_corrected,
    factor_spd,
)


def standard_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normals via the inverse CDF on a centered 53-bit lattice.

    u = (k + 0.5) / 2^53 with k uniform on [0, 2^53) keeps u strictly inside
    (0, 1).  With _rng_for this is the RNG contract's reference draw.
    """
    u = rng.integers(0, 1 << 53, size=size, dtype=np.uint64) + 0.5
    u *= 2.0 ** -53
    return ndtri(u, out=u)


def _rng_for(seed, trial: int | None = None) -> np.random.Generator:
    key = () if trial is None else (trial,)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


def sample_noise(matrix: SymMatrix, seed) -> np.ndarray:
    """One zero-mean Gaussian vector L @ z with covariance ``matrix``."""
    return Dense(matrix).lower @ standard_normal(_rng_for(seed), matrix.dim)


class TestStandardNormal:
    def test_deterministic(self):
        a = standard_normal(np.random.default_rng(42), 100)
        b = standard_normal(np.random.default_rng(42), 100)
        assert np.array_equal(a, b)

    def test_moments(self):
        z = standard_normal(np.random.default_rng(0), 1_000_000)
        assert abs(z.mean()) < 4e-3
        assert abs(z.var() - 1.0) < 5e-3
        assert np.isfinite(z).all()

    def test_empty_draw(self):
        assert standard_normal(np.random.default_rng(1), 0).size == 0


class TestSampleNoise:
    def test_bit_identical_for_same_seed(self):
        m = build(CovSpec("solvable", 1.0, 0.5, 8))
        assert np.array_equal(sample_noise(m, 123), sample_noise(m, 123))

    def test_different_seeds_differ(self):
        m = SymMatrix(np.eye(8))
        assert not np.array_equal(sample_noise(m, 1), sample_noise(m, 2))

    def test_identity_empirical_covariance(self):
        trials = 100_000
        m = SymMatrix(np.eye(4))
        draws = np.array([sample_noise(m, s) for s in range(trials)])
        emp = np.cov(draws.T)
        assert np.abs(emp - np.eye(4)).max() < 3.0 / np.sqrt(trials)

    def test_solvable_empirical_covariance(self):
        m = build(CovSpec("solvable", 1.0, 0.5, 2))
        draws = np.array([sample_noise(m, s) for s in range(20_000)])
        cov01 = np.cov(draws.T)[0, 1]
        # 3 sigma of a sample covariance with T draws.
        sigma = np.sqrt((1.5 * 1.5 + 0.5 * 0.5) / 20_000)
        assert abs(cov01 - 0.5) < 3 * sigma

    def test_rejects_singular_covariance(self):
        with pytest.raises(NotPositiveDefinite):
            sample_noise(SymMatrix([[1.0, 1.0], [1.0, 1.0]]), 0)


class TestRunTrials:
    def test_deterministic_ensemble(self):
        spec = CovSpec("solvable", 1.0, 0.05, 20)
        a = run_trials(spec, direct_design(20), "equal", trials=200, seed=5)
        b = run_trials(spec, direct_design(20), "equal", trials=200, seed=5)
        assert np.array_equal(a.estimates, b.estimates)
        assert a.config_digest == b.config_digest
        assert a.empirical_mean == b.empirical_mean

    def test_summary_recomputable(self):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        ens = run_trials(spec, direct_design(10), "equal", trials=500, seed=6)
        assert ens.empirical_variance >= 0.0
        assert ens.empirical_mean == pytest.approx(
            float(np.mean(ens.estimates)), abs=1e-12
        )
        assert ens.empirical_variance == pytest.approx(
            float(np.var(ens.estimates, ddof=1)), abs=1e-12
        )

    def test_near_noise_free(self):
        spec = CovSpec("solvable", 1e-12, 0.0, 10)
        ens = run_trials(spec, direct_design(10), "equal", trials=100, seed=4, d_true=2.5)
        assert ens.empirical_mean == pytest.approx(2.5, abs=1e-5)
        assert ens.empirical_variance < 1e-10

    def test_null_signal_unbiased(self):
        spec = CovSpec("solvable", 1.0, 0.05, 30)
        ens = run_trials(spec, direct_design(30), "equal", trials=20_000, seed=17, d_true=0.0)
        se = np.sqrt(ens.empirical_variance / ens.trials)
        assert abs(ens.empirical_mean) <= 4 * se

    def test_chi_square_sanity(self):
        spec = CovSpec("solvable", 1.0, 0.05, 40)
        trials = 5000
        ens = run_trials(spec, direct_design(40), "equal", trials=trials, seed=2718)
        true_var = 1.0 / 40 + 0.05
        stat = trials * ens.empirical_variance / true_var
        lo, hi = chi2.ppf([0.0005, 0.9995], trials - 1)
        assert lo < stat < hi

    def test_lag_one_autocorrelation(self):
        spec = CovSpec("solvable", 1.0, 0.05, 40)
        trials = 5000
        ens = run_trials(spec, direct_design(40), "equal", trials=trials, seed=2718)
        e = ens.estimates
        rho = np.corrcoef(e[:-1], e[1:])[0, 1]
        assert abs(rho) < 4.0 / np.sqrt(trials)

    def test_digest_names_generator_and_method(self):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        ens = run_trials(spec, direct_design(10), "equal", trials=10, seed=0)
        assert GENERATOR_NAME in ens.config_digest
        assert NORMAL_METHOD in ens.config_digest
        assert "estimator=equal" in ens.config_digest

    def test_estimates_read_only(self):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        ens = run_trials(spec, direct_design(10), "equal", trials=10, seed=0)
        with pytest.raises(ValueError):
            ens.estimates[0] = 0.0

    def test_requires_two_trials(self):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        with pytest.raises(InvalidSpec):
            run_trials(spec, direct_design(10), "equal", trials=1, seed=0)

    def test_rejects_more_trials_than_one_word_spawn_keys(self):
        # Rejected before the estimates array is allocated or anything drawn.
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        with pytest.raises(InvalidSpec, match="2\\*\\*32"):
            run_trials(spec, direct_design(10), "equal", trials=100_000_000_000, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5], ids=["negative", "non-integral"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        with pytest.raises(InvalidSpec, match="seed"):
            run_trials(spec, direct_design(10), "equal", trials=10, seed=seed)

    @pytest.mark.parametrize("trials,d_true", [(10.5, 1.0), (10, np.nan), (10, np.inf)],
                             ids=["fractional-trials", "nan-d", "inf-d"])
    def test_trials_and_d_true_are_checked(self, trials, d_true):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        with pytest.raises(InvalidSpec):
            run_trials(spec, direct_design(10), "equal", trials=trials, seed=0, d_true=d_true)

    def test_design_size_must_match(self):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        with pytest.raises(InvalidSpec):
            run_trials(spec, direct_design(9), "equal", trials=10, seed=0)

    def test_unknown_estimator(self):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        with pytest.raises(InvalidSpec, match="unknown estimator 'median'"):
            run_trials(spec, direct_design(10), "median", trials=10, seed=0)

    def test_wva_corrected_needs_solvable(self):
        spec = CovSpec("exponential", 1.0, 0.05, 10, eta=1.0)
        design = make_design(10, "blocks", gamma=0.2)
        with pytest.raises(InvalidSpec):
            run_trials(spec, design, "wva-corrected", trials=10, seed=0)

    def test_ml_matches_public_estimator_sample_for_sample(self):
        spec = CovSpec("solvable", 1.0, 0.3, 12)
        design = make_design(12, "blocks", gamma=0.25)
        ens = run_trials(spec, design, "ml", trials=5, seed=77)
        matrix = build(spec)
        lower = factor_spd(matrix)
        for t in range(5):
            z = standard_normal(_rng_for(77, t), 12)
            data = Dataset(design.mu_prime + lower @ z, design)
            assert ens.estimates[t] == pytest.approx(
                estimate_ml(data, Dense(matrix)), rel=1e-12
            )


def _reference_estimates(spec, design, estimator, d_true, trials, seed):
    """The per-trial loop: standard_normal -> Dataset -> estimate_* for each trial."""
    matrix = build(spec)
    lower = factor_spd(matrix)
    mean = design.mu_prime * d_true
    apply = {
        "equal": estimate_equal_weight,
        "ml": lambda data: estimate_ml(data, Dense(matrix)),
        "wva": estimate_wva,
        "bgsub": estimate_background_subtraction,
        "wva-corrected": lambda data: estimate_wva_corrected(data, spec.a, spec.c),
    }[estimator]
    return np.array([
        apply(Dataset(mean + lower @ standard_normal(_rng_for(seed, t), spec.n), design))
        for t in range(trials)
    ])


@st.composite
def _runs(draw):
    """A model, a design and an estimator that fits them."""
    kind = draw(st.sampled_from(["solvable", "exponential", "white"]))
    n = draw(st.integers(2, 300))
    a = draw(st.floats(0.1, 10.0))
    if kind == "solvable":
        c = draw(st.floats(-0.5 * a / n, 2.0))
    else:
        c = draw(st.floats(0.0, 2.0))
    eta = draw(st.floats(0.01, 1e4)) if kind == "exponential" else None
    spec = CovSpec(kind, a, c, n, eta=eta)
    scheme = draw(st.sampled_from(["direct", "alternating", "periodic", "bernoulli", "blocks"]))
    if scheme == "direct":
        design = direct_design(n)
    else:
        gamma = draw(st.floats(0.02, 0.5)) if scheme != "alternating" else None
        try:
            design = make_design(n, scheme, gamma=gamma, seed=draw(st.integers(0, 2**31)))
        except EstlabError:
            assume(False)
    fitting = []
    for name in ESTIMATOR_NAMES:
        try:
            check_fits(name, spec, design)
        except EstlabError:
            continue
        fitting.append(name)
    assume(fitting)
    return spec, design, draw(st.sampled_from(fitting))


@st.composite
def _spawn_blocks(draw):
    """A seed of 1 to 6 uint32 words and a block of one-word spawn keys."""
    words = draw(st.integers(1, 6))
    seed = draw(st.integers(0, (1 << 32 * words) - 1))
    count = draw(st.integers(1, 300))
    first = draw(st.one_of(st.sampled_from([0, 255, 256, 2**32 - count]),
                           st.integers(0, 2**32 - count)))
    return seed, first, count


class TestSpawnStates:
    """_spawn_states is numpy's SeedSequence hash, one block of keys at a time."""

    @settings(deadline=None, max_examples=150)
    @given(block=_spawn_blocks())
    @example(block=(0, 0, 1))
    @example(block=(2**32 - 1, 255, 2))
    @example(block=(2**32, 256, 300))
    @example(block=(2**128, 2**32 - 5, 5))
    @example(block=(2**160, 2**32 - 1, 1))
    def test_matches_numpy_seed_sequence(self, block):
        seed, first, count = block
        expected = np.array([
            np.random.SeedSequence(seed, spawn_key=(t,)).generate_state(4, np.uint64)
            for t in range(first, first + count)
        ])
        got = _spawn_states(seed, first, count)
        assert got.dtype == np.uint64 and got.shape == (count, 4)
        assert np.array_equal(got, expected)


class TestBatchedTrials:
    """run_trials draws per-trial substreams in blocks and applies weights once."""

    @settings(deadline=None, max_examples=60)
    @given(run=_runs(), d_true=st.floats(-3.0, 3.0), trials=st.integers(2, 40),
           seed=st.integers(0, 2**32))
    def test_matches_per_trial_reference_loop(self, run, d_true, trials, seed):
        spec, design, estimator = run
        ens = run_trials(spec, design, estimator, d_true=d_true, trials=trials, seed=seed)
        reference = _reference_estimates(spec, design, estimator, d_true, trials, seed)
        # The exact standard deviation of one estimate, sqrt(w'Cw): a handful
        # of trials can have a sample spread near 0 by chance.
        matrix = build(spec)
        w = estimator_weights(estimator, spec, design, Dense(matrix))
        spread = np.sqrt(w @ matrix.entries @ w)
        assert np.abs(ens.estimates - reference).max() <= 1e-12 * spread

    @settings(deadline=None, max_examples=15)
    @given(n=st.integers(1, 40), trials=st.integers(2, 2 * BLOCK_TRIALS + 3),
           extra=st.integers(1, BLOCK_TRIALS + 1), seed=st.integers(0, 2**32))
    def test_longer_run_extends_a_shorter_one(self, n, trials, extra, seed):
        spec = CovSpec("exponential", 1.0, 0.4, n, eta=3.0)
        short = run_trials(spec, direct_design(n), "equal", trials=trials, seed=seed)
        long = run_trials(spec, direct_design(n), "equal", trials=trials + extra, seed=seed)
        assert np.array_equal(long.estimates[:trials], short.estimates)

    @pytest.mark.parametrize("first,count,n", [(0, 1, 1), (0, 5, 17), (253, 7, 100)])
    def test_block_normals_are_the_per_trial_normals(self, first, count, n):
        block = _trial_normals(2024, first, count, n)
        rows = [standard_normal(_rng_for(2024, first + i), n) for i in range(count)]
        assert np.array_equal(block, np.array(rows))

    def test_bounded_integers_are_shifted_raw_words(self):
        # Lemire's method never rejects for the range 2**53, so Generator.integers
        # is the top 53 bits of each raw PCG64 word; run_trials relies on this.
        for seed in range(300):
            n = seed % 37
            drawn = np.random.default_rng(seed).integers(0, 2**53, size=n, dtype=np.uint64)
            raw = np.random.PCG64(seed).random_raw(n) >> 11
            assert np.array_equal(drawn, raw), seed
