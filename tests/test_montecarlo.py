import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import chi2

from estlab import montecarlo
from estlab.covariance import CovSpec
from estlab.errors import EstlabError, InvalidSpec, NotPositiveDefinite
from estlab.estimators import ESTIMATOR_NAMES, Dataset, check_fits, estimator_weights
from estlab.matkernel import SymMatrix
from estlab.montecarlo import BLOCK_WORDS, _trial_normals, run_trials
from estlab.partition import make_design

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

    u = (k + 0.5) / 2^53 with k uniform on [0, 2^53), clamped at 1 - 2^-53
    since k + 0.5 rounds to 2^53 at the last k.  With _rng_for this is the
    RNG contract's reference draw.
    """
    u = rng.integers(0, 1 << 53, size=size, dtype=np.uint64) + 0.5
    u *= 2.0 ** -53
    np.minimum(u, 1.0 - 2.0 ** -53, out=u)
    return ndtri(u, out=u)


def _rng_for(seed, trial: int | None = None, n: int | None = None) -> np.random.Generator:
    """The root stream of ``seed``, or the run stream at trial ``trial`` of ``n`` normals.

    A run reads PCG64(SeedSequence(seed, spawn_key=(0,))) in order, so trial
    t starts at raw word t * n; advance jumps there without drawing.
    """
    if trial is None:
        return np.random.default_rng(np.random.SeedSequence(int(seed)))
    stream = np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=(0,)))
    return np.random.Generator(stream.advance(trial * n))


def _recorded_normals(monkeypatch, *args, **kwargs) -> np.ndarray:
    """Every normal a run_trials call draws, in stream order."""
    drawn = []

    def recording_ndtri(u, out):
        z = ndtri(u, out=out)
        drawn.append(z.ravel().copy())
        return z

    monkeypatch.setattr(montecarlo, "ndtri", recording_ndtri)
    run_trials(*args, **kwargs)
    return np.concatenate(drawn)


def sample_noise(matrix: SymMatrix, seed, count: int = 1) -> np.ndarray:
    """``count`` zero-mean Gaussian vectors L @ z with covariance ``matrix``, one
    per row, all drawn in turn from the root stream of ``seed``."""
    z = standard_normal(_rng_for(seed), count * matrix.dim).reshape(count, matrix.dim)
    return z @ Dense(matrix).lower.T


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

    def test_extreme_words_give_finite_normals(self):
        # The largest word once gave u = 1.0 and an infinite normal.  Only its
        # value moves: to ndtri(1 - 2^-53), one lattice step past its neighbour.
        class Stub:
            def random_raw(self, size):
                words = [2**64 - 1, 2**64 - 1 - 2**11, 0, 2**11]
                return np.array(words[:size], dtype=np.uint64)

        z = _trial_normals(Stub(), 2, 2).ravel()
        assert np.isfinite(z).all()
        assert z[0] == ndtri(1.0 - 2.0 ** -53) == pytest.approx(8.2095, abs=1e-4)
        assert z[1] == ndtri((2.0 ** 53 - 1.5) * 2.0 ** -53) == pytest.approx(8.1259, abs=1e-4)
        assert z[2] == ndtri(2.0 ** -54) == pytest.approx(-8.2924, abs=1e-4)
        assert z[3] == ndtri(1.5 * 2.0 ** -53)
        assert z[1] < z[0]


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
        draws = sample_noise(m, 0, trials)
        emp = np.cov(draws.T)
        assert np.abs(emp - np.eye(4)).max() < 3.0 / np.sqrt(trials)

    def test_solvable_empirical_covariance(self):
        m = build(CovSpec("solvable", 1.0, 0.5, 2))
        draws = sample_noise(m, 0, 20_000)
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
        a = run_trials(spec, make_design(20, "direct"), "equal",
                       d_true=1.0, trials=200, seed=5)
        b = run_trials(spec, make_design(20, "direct"), "equal",
                       d_true=1.0, trials=200, seed=5)
        assert np.array_equal(a.estimates, b.estimates)
        assert a.empirical_mean == b.empirical_mean

    def test_summary_recomputable(self):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        ens = run_trials(spec, make_design(10, "direct"), "equal",
                         d_true=1.0, trials=500, seed=6)
        assert ens.empirical_variance >= 0.0
        assert ens.empirical_mean == pytest.approx(
            float(np.mean(ens.estimates)), abs=1e-12
        )
        assert ens.empirical_variance == pytest.approx(
            float(np.var(ens.estimates, ddof=1)), abs=1e-12
        )

    def test_near_noise_free(self):
        spec = CovSpec("solvable", 1e-12, 0.0, 10)
        ens = run_trials(spec, make_design(10, "direct"), "equal",
                         trials=100, seed=4, d_true=2.5)
        assert ens.empirical_mean == pytest.approx(2.5, abs=1e-5)
        assert ens.empirical_variance < 1e-10

    def test_null_signal_unbiased(self):
        spec = CovSpec("solvable", 1.0, 0.05, 30)
        ens = run_trials(spec, make_design(30, "direct"), "equal",
                         trials=20_000, seed=17, d_true=0.0)
        se = np.sqrt(ens.empirical_variance / ens.trials)
        assert abs(ens.empirical_mean) <= 4 * se

    def test_chi_square_sanity(self):
        spec = CovSpec("solvable", 1.0, 0.05, 40)
        trials = 5000
        ens = run_trials(spec, make_design(40, "direct"), "equal",
                         d_true=1.0, trials=trials, seed=2718)
        true_var = 1.0 / 40 + 0.05
        stat = trials * ens.empirical_variance / true_var
        lo, hi = chi2.ppf([0.0005, 0.9995], trials - 1)
        assert lo < stat < hi

    def test_lag_one_autocorrelation(self):
        spec = CovSpec("solvable", 1.0, 0.05, 40)
        trials = 5000
        ens = run_trials(spec, make_design(40, "direct"), "equal",
                         d_true=1.0, trials=trials, seed=2718)
        e = ens.estimates
        rho = np.corrcoef(e[:-1], e[1:])[0, 1]
        assert abs(rho) < 4.0 / np.sqrt(trials)

    def test_estimates_read_only(self):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        ens = run_trials(spec, make_design(10, "direct"), "equal",
                         d_true=1.0, trials=10, seed=0)
        with pytest.raises(ValueError):
            ens.estimates[0] = 0.0

    def test_requires_two_trials(self):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        with pytest.raises(InvalidSpec):
            run_trials(spec, make_design(10, "direct"), "equal",
                       d_true=1.0, trials=1, seed=0)

    def test_rejects_more_than_2_pow_32_trials(self):
        # Rejected before the estimates array is allocated or anything drawn.
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        with pytest.raises(InvalidSpec, match="2\\*\\*32"):
            run_trials(spec, make_design(10, "direct"), "equal",
                       d_true=1.0, trials=100_000_000_000, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5], ids=["negative", "non-integral"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        with pytest.raises(InvalidSpec, match="seed"):
            run_trials(spec, make_design(10, "direct"), "equal",
                       d_true=1.0, trials=10, seed=seed)

    @pytest.mark.parametrize("trials,d_true", [(10.5, 1.0), (10, np.nan), (10, np.inf)],
                             ids=["fractional-trials", "nan-d", "inf-d"])
    def test_trials_and_d_true_are_checked(self, trials, d_true):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        with pytest.raises(InvalidSpec):
            run_trials(spec, make_design(10, "direct"), "equal",
                       trials=trials, seed=0, d_true=d_true)

    def test_design_size_must_match(self):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        with pytest.raises(InvalidSpec):
            run_trials(spec, make_design(9, "direct"), "equal",
                       d_true=1.0, trials=10, seed=0)

    def test_unknown_estimator(self):
        spec = CovSpec("solvable", 1.0, 0.05, 10)
        with pytest.raises(InvalidSpec, match="unknown estimator 'median'"):
            run_trials(spec, make_design(10, "direct"), "median",
                       d_true=1.0, trials=10, seed=0)

    def test_wva_corrected_needs_solvable(self):
        spec = CovSpec("exponential", 1.0, 0.05, 10, eta=1.0)
        design = make_design(10, "blocks", gamma=0.2)
        with pytest.raises(InvalidSpec):
            run_trials(spec, design, "wva-corrected", d_true=1.0, trials=10, seed=0)

    def test_ml_matches_public_estimator_sample_for_sample(self):
        spec = CovSpec("solvable", 1.0, 0.3, 12)
        design = make_design(12, "blocks", gamma=0.25)
        ens = run_trials(spec, design, "ml", d_true=1.0, trials=5, seed=77)
        matrix = build(spec)
        lower = factor_spd(matrix)
        for t in range(5):
            z = standard_normal(_rng_for(77, t, 12), 12)
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
        apply(Dataset(mean + lower @ standard_normal(_rng_for(seed, t, spec.n), spec.n), design))
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
        design = make_design(n, "direct")
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
def _prefix_runs(draw):
    """n, a trial count and an extension, each spanning up to two blocks."""
    n = draw(st.integers(1, 40))
    per_block = BLOCK_WORDS // n
    trials = draw(st.integers(2, 2 * per_block + 3))
    return n, trials, draw(st.integers(1, per_block + 1))


class TestBatchedTrials:
    """run_trials reads one stream in blocks of trials and applies weights once."""

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
    @given(run=_prefix_runs(), seed=st.integers(0, 2**32))
    # Past 8192 columns a sum over a block must still be row by row.
    @example(run=(10_000, 257, 3), seed=5)
    def test_longer_run_extends_a_shorter_one(self, run, seed):
        n, trials, extra = run
        spec = CovSpec("exponential", 1.0, 0.4, n, eta=3.0)
        short = run_trials(spec, make_design(n, "direct"), "equal",
                           d_true=1.0, trials=trials, seed=seed)
        long = run_trials(spec, make_design(n, "direct"), "equal",
                          d_true=1.0, trials=trials + extra, seed=seed)
        assert np.array_equal(long.estimates[:trials], short.estimates)

    def test_block_size_does_not_change_the_estimates(self, monkeypatch):
        n = 10_000
        spec = CovSpec("exponential", 1.0, 0.05, n, eta=10.0)
        runs = []
        # One trial per block, three per block, and the default.
        for words in (n, 3 * n, BLOCK_WORDS):
            monkeypatch.setattr(montecarlo, "BLOCK_WORDS", words)
            runs.append(run_trials(spec, make_design(n, "direct"), "equal",
                                   d_true=1.0, trials=9, seed=1))
        for ens in runs[1:]:
            assert np.array_equal(ens.estimates, runs[0].estimates)

    def test_draw_memory_is_bounded(self):
        # A block holds about BLOCK_WORDS normals, not a fixed trial count.
        n = 100_000
        spec = CovSpec("exponential", 1.0, 0.05, n, eta=10.0)
        design = make_design(n, "alternating")
        tracemalloc.start()
        try:
            run_trials(spec, design, "ml", d_true=1.0, trials=300, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("first,count,n", [(0, 1, 1), (0, 5, 17), (253, 7, 100)])
    def test_block_normals_are_the_per_trial_normals(self, first, count, n):
        # Two consecutive blocks: the second holds trials first ... first + count - 1.
        stream = _rng_for(2024, 0, n).bit_generator
        _trial_normals(stream, first, n)
        block = _trial_normals(stream, count, n)
        rows = [standard_normal(_rng_for(2024, first + i, n), n) for i in range(count)]
        assert np.array_equal(block, np.array(rows))

    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    def test_trial_zero_draws_the_first_spawned_substream(self, seed, monkeypatch):
        # Trial 0 is what it was when each trial t read SeedSequence(seed, spawn_key=(t,)).
        drawn = _recorded_normals(monkeypatch, CovSpec("solvable", 1.0, 0.05, 30),
                                  make_design(30, "direct"), "equal",
                                  d_true=1.0, trials=3, seed=seed)
        first = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        assert np.array_equal(drawn[:30], standard_normal(first, 30))

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_trials_share_no_words_with_the_design_stream(self, seed, monkeypatch):
        # A bernoulli design draws its mask from the root stream SeedSequence(seed).
        n, trials = 50, 4
        design = make_design(n, "bernoulli", gamma=0.5, seed=seed)
        drawn = _recorded_normals(monkeypatch, CovSpec("solvable", 1.0, 0.05, n), design,
                                  "wva", d_true=1.0, trials=trials, seed=seed)
        root = standard_normal(_rng_for(seed), 2 * trials * n)
        assert drawn.size == trials * n
        assert np.intersect1d(drawn, root).size == 0

    def test_bounded_integers_are_shifted_raw_words(self):
        # Lemire's method never rejects for the range 2**53, so Generator.integers
        # is the top 53 bits of each raw PCG64 word; run_trials relies on this.
        for seed in range(300):
            n = seed % 37
            drawn = np.random.default_rng(seed).integers(0, 2**53, size=n, dtype=np.uint64)
            raw = np.random.PCG64(seed).random_raw(n) >> 11
            assert np.array_equal(drawn, raw), seed
