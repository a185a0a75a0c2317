import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from estlab.covariance import Chain, CovSpec, WeightSpectrum, check_model, make_covariance
from estlab.errors import EstlabError, InvalidSpec, NotPositiveDefinite, NumericFailure
from estlab.fisher import (
    TwoOutcomeSpec,
    fi_eigen,
    fi_matched,
    fi_opm_solvable,
    fi_two_outcome,
    fi_wva_solvable,
    optimal_alpha,
    two_outcome_variance,
)
from estlab.matkernel import SymMatrix
from estlab.partition import make_design, spin_coefficients, spin_model

from conftest import Dense, block_terms, build, chain_matrix, random_spd


def direct(cov, mean_shift=1.0):
    """(fi, iv) of the direct strategy: every slot, mean coefficient mean_shift."""
    return fi_matched(cov, np.ones(cov.dim), mean_shift * mean_shift)


def _decades(low, high):
    """Positive floats 10**u, u uniform in [low, high]."""
    return st.floats(low, high).map(lambda u: 10.0**u)


def _signed_decades(low, high):
    """Floats of either sign whose magnitudes are _decades(low, high)."""
    return st.tuples(st.sampled_from([-1.0, 1.0]), _decades(low, high)).map(
        lambda pair: pair[0] * pair[1])


class TestDirectNumeric:
    def test_white(self):
        m = build(CovSpec("white", 1.0, 0.05, 20))
        assert direct(Dense(m))[0] == pytest.approx(20 / 1.05, rel=1e-12)

    def test_solvable_large(self):
        m = build(CovSpec("solvable", 1.0, 0.05, 1000))
        assert direct(Dense(m))[0] == pytest.approx(
            19.607843137254903, rel=1e-10
        )

    def test_diagonal_additivity(self):
        sig = np.array([0.5, 2.0, 1.25, 4.0])
        m = SymMatrix(np.diag(sig))
        assert direct(Dense(m))[0] == pytest.approx((1.0 / sig).sum(), rel=1e-12)

    def test_mean_shift_scaling(self):
        m = build(CovSpec("solvable", 1.0, 0.1, 10))
        base = direct(Dense(m))[0]
        assert direct(Dense(m), mean_shift=3.0)[0] == pytest.approx(
            9.0 * base, rel=1e-12
        )

    def test_zero_mean_shift_rejected(self):
        with pytest.raises(InvalidSpec):
            direct(Dense(SymMatrix(np.eye(2))), mean_shift=0.0)


class TestEigenWeighted:
    def test_solvable_example(self):
        ws = make_covariance(CovSpec("solvable", 1.0, 2.0, 3)).spectrum()
        assert fi_eigen(ws)[0] == pytest.approx(3.0 / 7.0, rel=1e-12)

    def test_white(self):
        ws = make_covariance(CovSpec("solvable", 2.0, 0.0, 8)).spectrum()
        assert fi_eigen(ws)[0] == pytest.approx(4.0, rel=1e-12)

    def test_matches_direct_on_random_spd(self):
        m = random_spd(24, seed=5)
        eigen = fi_eigen(Dense(m).spectrum())[0]
        assert eigen == pytest.approx(direct(Dense(m))[0], rel=1e-8)

    def test_mean_shift_is_keyword_only(self):
        # N comes from the spectrum; a positional second argument would once
        # have been N and must not be read as a shift.
        spectrum = Dense(random_spd(24, seed=5)).spectrum()
        with pytest.raises(TypeError):
            fi_eigen(spectrum, 24)
        shifted = fi_eigen(spectrum, mean_shift=3.0)[0]
        assert shifted == pytest.approx(9.0 * fi_eigen(spectrum)[0], rel=1e-12)


class TestTwoOutcome:
    def test_independent_unit_pair(self):
        assert fi_two_outcome(TwoOutcomeSpec(1.0, 1.0, 0.0)) == pytest.approx(2.0)

    def test_anticorrelated(self):
        assert fi_two_outcome(TwoOutcomeSpec(1.0, 1.0, -0.5)) == pytest.approx(4.0)

    def test_singular_raises(self):
        with pytest.raises(InvalidSpec, match=r"\|r\| = 1: degenerate covariance"):
            fi_two_outcome(TwoOutcomeSpec(1.0, 4.0, 2.0))

    def test_spec_validation(self):
        with pytest.raises(InvalidSpec):
            TwoOutcomeSpec(1.0, 1.0, 1.5)
        with pytest.raises(InvalidSpec):
            TwoOutcomeSpec(-1.0, 1.0, 0.0)

    def test_derived_parameters(self):
        # x = var1/var2 and r = cov/sqrt(var1*var2).
        spec = TwoOutcomeSpec(4.0, 1.0, 1.0)
        assert spec.var1 / spec.var2 == pytest.approx(4.0)
        assert spec.cov / math.sqrt(spec.var1 * spec.var2) == pytest.approx(0.5)

    def test_variance_endpoints(self):
        spec = TwoOutcomeSpec(3.0, 2.0, 0.5)
        assert two_outcome_variance(spec, 1.0) == pytest.approx(3.0)
        assert two_outcome_variance(spec, 0.0) == pytest.approx(2.0)

    def test_equal_weighting_closed_form(self):
        # alpha = 1/2 with var1 = var2 = v and cov = k gives v/2 + k/2.
        v, k = 1.0, 0.5
        spec = TwoOutcomeSpec(v, v, k)
        assert two_outcome_variance(spec, 0.5) == pytest.approx(v / 2 + k / 2)

    def test_optimum_inverts_information(self):
        spec = TwoOutcomeSpec(2.0, 1.0, -0.3)
        alpha = optimal_alpha(spec)
        assert two_outcome_variance(spec, alpha) == pytest.approx(
            1.0 / fi_two_outcome(spec), rel=1e-12
        )

    def test_optimal_alpha_symmetric(self):
        assert optimal_alpha(TwoOutcomeSpec(1.0, 1.0, 0.3)) == pytest.approx(0.5)

    def test_optimal_alpha_inverse_variance_weighting(self):
        assert optimal_alpha(TwoOutcomeSpec(4.0, 1.0, 0.0)) == pytest.approx(0.2)

    def test_perfect_positive_correlation_asymmetric(self):
        # x = 4, r = 1: the optimal combination 2*s2 - s1 has zero variance.
        spec = TwoOutcomeSpec(4.0, 1.0, 2.0)
        alpha = optimal_alpha(spec)
        assert alpha == pytest.approx(-1.0)
        assert two_outcome_variance(spec, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_denominator(self):
        # var1 = var2 = cov: every weight has the same variance.
        assert optimal_alpha(TwoOutcomeSpec(1.0, 1.0, 1.0)) == 0.5

    @pytest.mark.parametrize("x", [-1.0, 0.0, math.nan])
    def test_from_xr_needs_positive_asymmetry(self, x):
        with pytest.raises(InvalidSpec, match="the asymmetry x must be > 0"):
            TwoOutcomeSpec.from_xr(x, 0.5)

    @pytest.mark.parametrize("x,r", [(1.0, 0.0), (4.0, 0.5), (0.3, -0.8)])
    def test_optimum_on_grid(self, x, r):
        spec = TwoOutcomeSpec.from_xr(x, r)
        best = two_outcome_variance(spec, optimal_alpha(spec))
        grid = np.linspace(-2.0, 3.0, 501)
        values = [two_outcome_variance(spec, alpha) for alpha in grid]
        assert best <= min(values) + 1e-12

    @settings(max_examples=200, deadline=None)
    @example(x=1.0, r=1.0)
    @example(x=1.0, r=-1.0)
    @example(x=4.0, r=1.0)
    @given(x=st.one_of(st.just(1.0), _decades(-3.0, 3.0)),
           r=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)))
    def test_optimum_beats_a_fine_grid(self, x, r):
        spec = TwoOutcomeSpec.from_xr(x, r)
        try:
            alpha = optimal_alpha(spec)
        except NumericFailure:  # x near 1 and r = 1: no float resolves the optimum
            return
        best = two_outcome_variance(spec, alpha)
        grid = two_outcome_variance(spec, np.linspace(-3.0, 4.0, 7001))
        # best is the rounded sum of these terms, which cancel at |alpha| >> 1.
        terms = alpha**2 * spec.var1 + (1 - alpha)**2 * spec.var2 \
            + 2 * abs(alpha * (1 - alpha) * spec.cov)
        assert best <= grid.min() + 1e-12 * (spec.var1 + spec.var2) + 4e-16 * terms

    @pytest.mark.parametrize("x", [1.0 + 1e-11, 1.0 - 1e-11])
    def test_optimum_beyond_floating_point_is_numeric_failure(self, x):
        # var1 + var2 - 2cov rounds to 0 or below, though the curve is not
        # flat: its slope is about (1 - x)/2, and its optimum near 2/(1 - x).
        with pytest.raises(NumericFailure, match="cancels"):
            optimal_alpha(TwoOutcomeSpec.from_xr(x, 1.0))


class TestPartitioned:
    def test_uniform_mu_reduces_to_direct(self):
        m = random_spd(10, seed=21)
        shift = 1.7
        fi, _ = fi_matched(Dense(m), np.full(10, shift))
        assert fi == pytest.approx(direct(Dense(m), mean_shift=shift)[0], rel=1e-12)

    def test_alternating_signs_on_white(self):
        m = build(CovSpec("white", 1.0, 0.05, 12))
        mu = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
        assert fi_matched(Dense(m), mu)[0] == pytest.approx(12 / 1.05, rel=1e-12)

    def test_terms_match_closed_form(self):
        a, c, n = 1.0, 0.5, 100
        design = make_design(n, "blocks", gamma=0.3)
        m = build(CovSpec("solvable", a, c, n))
        value, _ = fi_matched(Dense(m), design.mu_prime)
        aw, awp = design.aw, design.awp
        closed, _, terms = fi_opm_solvable(a, c, n, 0.3, aw, awp)
        assert value == pytest.approx(closed, rel=1e-10)
        for t_num, t_closed in zip(block_terms(Dense(m), design), terms):
            assert t_num == pytest.approx(t_closed, rel=1e-9)

    def test_terms_sum_to_value(self):
        design = make_design(30, "blocks", gamma=0.2)
        m = random_spd(30, seed=30)
        value, _ = fi_matched(Dense(m), design.mu_prime)
        assert sum(block_terms(Dense(m), design)) == pytest.approx(value, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidSpec, match="columns of length 3, got shape \\(4,\\)"):
            fi_matched(Dense(SymMatrix(np.eye(3))), np.ones(4))


class TestMatched:
    @settings(deadline=None, max_examples=80)
    @given(
        n=st.integers(1, 200),
        a=st.floats(-1.0, 1.0).map(lambda x: 10.0**x),
        c=st.floats(0.0, 1.0),
        eta=st.one_of(st.just(0.0), st.floats(-2.0, 6.0).map(lambda x: 10.0**x),
                      st.just(math.inf)),
        scale=st.floats(0.1, 10.0),
        data=st.data(),
    )
    def test_cramer_rao_and_dense_agreement(self, n, a, c, eta, scale, data):
        # Mean coefficients, zeros included, on a drawn subset of the slots.
        # Below about 1e-81 the squared norm squares to 0, and fi_matched
        # rejects the coefficients as out of range.
        idx = np.flatnonzero(data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(any)))
        mu = np.array(data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3)),
            min_size=idx.size, max_size=idx.size)))
        assume(np.any(mu != 0.0))
        chain = Chain(a, c, eta, np.arange(n)).restrict(idx)
        dense = Dense(chain_matrix(a, c, eta, n)).restrict(idx)
        fi, iv = fi_matched(chain, mu, scale)
        assert fi >= iv * (1.0 - 1e-12)
        norm = float(mu @ mu)
        assert fi == pytest.approx(scale * float(dense.quad(mu)), rel=1e-12)
        assert iv == pytest.approx(scale * norm * norm / float(dense.form(mu)), rel=1e-12)

    def test_one_entry_per_eta_and_column(self):
        eta = np.array([0.0, 3.7, math.inf])
        mu = np.column_stack([np.ones(9), np.arange(9.0)])
        fi, iv = fi_matched(Chain(1.0, 0.4, eta, np.arange(9)), mu, 2.0)
        assert fi.shape == iv.shape == (3, 2)
        for g, e in enumerate(eta):
            assert np.array_equal(fi[g], fi_matched(Chain(1.0, 0.4, e, np.arange(9)), mu, 2.0)[0])

    @pytest.mark.parametrize("mu,scale", [
        (np.zeros(4), 1.0),
        (np.column_stack([np.ones(4), np.zeros(4)]), 1.0),
        (np.ones(4), 0.0),
        (np.ones(4), -1.0),
        (np.ones(4), math.inf),
        (np.ones(4), math.nan),
    ])
    def test_zero_signal_rejected(self, mu, scale):
        with pytest.raises(InvalidSpec):
            fi_matched(make_covariance(CovSpec("white", 1.0, 0.0, 4)), mu, scale)

    @pytest.mark.parametrize("mu,cause", [
        ([0.0, 0.0, 0.0], "must not be the zero vector"),
        # The squared norm underflows to 0 or overflows to inf.
        ([4.75e-205, 0.0, 0.0], "squared norm of the mean coefficients"),
        ([1e200, 0.0, 0.0], "squared norm of the mean coefficients"),
        # The squared norm is normal but its square is subnormal, so iv would
        # lose digits (9.99988867182683e-161 where 1e-160 is exact).
        ([1e-80, 0.0, 0.0], "must square to a finite normal float"),
    ])
    def test_rejection_names_the_cause(self, mu, cause):
        cov = make_covariance(CovSpec("white", 1.0, 0.0, 3))
        with pytest.raises(InvalidSpec, match=cause):
            fi_matched(cov, np.array(mu))

    def test_smallest_accepted_norm_keeps_its_digits(self):
        # The least mu = [m, 0, 0] whose squared norm squares to a normal float.
        tiny = np.finfo(float).tiny

        def quartic(v):
            return (v * v) * (v * v)

        m = math.sqrt(math.sqrt(tiny))
        while quartic(m) < tiny:
            m = math.nextafter(m, math.inf)
        while quartic(math.nextafter(m, 0.0)) >= tiny:
            m = math.nextafter(m, 0.0)
        cov = make_covariance(CovSpec("white", 1.0, 0.0, 3))
        fi, iv = fi_matched(cov, np.array([m, 0.0, 0.0]))
        assert iv == pytest.approx(m * m, rel=1e-15)
        assert fi == pytest.approx(m * m, rel=1e-15)
        with pytest.raises(InvalidSpec, match="must square to a finite normal float"):
            fi_matched(cov, np.array([math.nextafter(m, 0.0), 0.0, 0.0]))


class TestWvaSolvable:
    def test_no_postselection_is_direct(self):
        fi, var = fi_wva_solvable(1.0, 0.3, 50, 1.0, 1.0)
        assert fi == pytest.approx(50 / (1 + 50 * 0.3), rel=1e-12)
        assert var == pytest.approx((1 / 50 + 0.3), rel=1e-12)

    def test_benchmark_point(self):
        fi, var = fi_wva_solvable(1.0, 0.05, 1000, 0.005, math.sqrt(1 / 0.005))
        assert fi == pytest.approx(800.0, rel=1e-12)
        # The retained-slot average over Aw: (a/(gamma*N) + c) * gamma.
        assert var == pytest.approx(0.25 * 0.005, rel=1e-12)

    def test_equal_weight_variance_matches_dense_contraction(self):
        # Aw * (1/m) * sum of the m retained samples has variance 1'C'1 / (m Aw)^2.
        a, c, n, gamma = 1.3, 0.07, 300, 0.02
        aw = math.sqrt(1.0 / gamma)
        m = round(gamma * n)
        fi, iv = direct(make_covariance(CovSpec("solvable", a, c, m)), aw)
        closed, var = fi_wva_solvable(a, c, n, gamma, aw)
        assert closed == pytest.approx(fi, rel=1e-12)
        assert var == pytest.approx(1.0 / iv, rel=1e-12)

    def test_bound_by_uncorrelated_information(self):
        # With Aw^2 = 1/gamma and at least one retained sample on average,
        # the information never beats N/(a+c).
        a, c, n = 1.0, 0.05, 1000
        bound = n / (a + c)
        for gamma in np.linspace(1.0 / n, 1.0, 57):
            value = fi_wva_solvable(a, c, n, float(gamma), math.sqrt(1.0 / gamma))[0]
            assert value <= bound * (1 + 1e-12)

    def test_direction_of_effect(self):
        # c > 0: smaller gamma raises the information; c < 0: lowers it.
        gammas = np.linspace(0.01, 1.0, 25)
        up = [fi_wva_solvable(1.0, 0.2, 100, g, math.sqrt(1 / g))[0] for g in gammas]
        assert (np.diff(up) < 0).all()
        down = [fi_wva_solvable(1.0, -0.005, 100, g, math.sqrt(1 / g))[0] for g in gammas]
        assert (np.diff(down) > 0).all()

    def test_invalid_gamma(self):
        with pytest.raises(InvalidSpec):
            fi_wva_solvable(1.0, 0.1, 10, 0.0, 1.0)

    @pytest.mark.parametrize("aw", [0.0, math.inf, math.nan])
    def test_amplification_must_be_finite_and_nonzero(self, aw):
        # A zero or NaN Aw would otherwise surface as InvalidSpectrum (exit 5).
        with pytest.raises(InvalidSpec, match="Aw must be finite and nonzero"):
            fi_wva_solvable(1.0, 0.05, 10, 0.5, aw)


class TestOpmSolvable:
    def test_spin_model_collapses_to_white_floor(self):
        model = spin_model(1.0)
        fi, _, _ = fi_opm_solvable(1.0, 0.5, 100, model.gamma, model.aw, model.awp)
        assert fi == pytest.approx(100.0, rel=1e-12)

    def test_gamma_to_one_limit_is_direct(self):
        a, c, n = 1.0, 0.2, 40
        fi, _, _ = fi_opm_solvable(a, c, n, 1.0 - 1e-12, 1.0, 0.0)
        assert fi == pytest.approx(n / (a + n * c), rel=1e-8)

    def test_gamma_domain(self):
        with pytest.raises(InvalidSpec):
            fi_opm_solvable(1.0, 0.1, 10, 1.0, 1.0, 1.0)

    def test_balanced_angle_term_values(self):
        # a=1, c=0.5, n=100 at phi = pi/2: terms are 1300/51, 1300/51, 2500/51.
        model = spin_model(math.pi / 2)
        _, _, terms = fi_opm_solvable(1.0, 0.5, 100, model.gamma, model.aw, model.awp)
        assert terms[0] == pytest.approx(1300.0 / 51.0, rel=1e-12)
        assert terms[1] == pytest.approx(1300.0 / 51.0, rel=1e-12)
        assert terms[2] == pytest.approx(2500.0 / 51.0, rel=1e-12)

    def test_phi_independence(self):
        # Total two-channel information is N/a at every overlap angle.
        a, c, n = 1.0, 0.5, 100
        target = n / a
        worst = 0.0
        for phi in np.linspace(0.01, math.pi - 0.01, 100):
            model = spin_model(float(phi))
            fi, _, _ = fi_opm_solvable(a, c, n, model.gamma, model.aw, model.awp)
            worst = max(worst, abs(fi - target) / target)
        assert worst < 1e-9

    def test_value_does_not_cancel_as_c_nears_minus_a_over_n(self):
        # For c < 0 both Sherman-Morrison terms are positive, so the value
        # stays N/a = 10 here, while the block terms reach +-2.25e16 and sum
        # to 8.0; the terms are not held to the value, and the dense operator
        # rejects the same covariance.
        c = math.nextafter(-0.1, 0.0)
        fi, _, terms = fi_opm_solvable(1.0, c, 10, 0.5, 1.0, -1.0)
        assert fi == 10.0
        assert sum(terms) == 8.0
        with pytest.raises(NotPositiveDefinite):
            make_covariance(CovSpec("solvable", 1.0, c, 10))
        fi, _, terms = fi_opm_solvable(1.0, -0.05, 10, 0.5, 1.0, -1.0)
        assert fi == pytest.approx(10.0, rel=1e-12)
        assert sum(terms) == pytest.approx(10.0, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @example(a=1e-3, c=1e3, n=2000, n1=1000, aw=1.0, awp=1.0)
    @example(a=1.0, c=0.0, n=2, n1=1, aw=-3.0, awp=0.01)
    @given(a=_decades(-3.0, 3.0), c=st.one_of(st.just(0.0), _decades(-4.0, 3.0)),
           n=st.integers(2, 2000), n1=st.integers(1, 1999),
           aw=_signed_decades(-2.0, 2.0), awp=_signed_decades(-2.0, 2.0))
    def test_value_is_the_numeric_information_for_c_at_least_zero(self, a, c, n, n1, aw, awp):
        # Same-sign pairs are where the Sherman-Morrison value cancels.
        assume(n1 < n)
        mu = np.r_[np.full(n1, aw), np.full(n - n1, awp)]
        want = float(fi_matched(Chain(a, c, math.inf, np.arange(n)), mu)[0])
        fi, _, _ = fi_opm_solvable(a, c, n, n1 / n, aw, awp)
        assert abs(fi - want) <= 1e-12 * want

    def test_equal_weight_variance_saturates_for_spin(self):
        model = spin_model(0.7)
        fi, var, _ = fi_opm_solvable(2.0, 0.4, 60, model.gamma, model.aw, model.awp)
        assert var == pytest.approx(1.0 / fi, rel=1e-10)


def _edgy(low, high):
    """Floats in [low, high], any float, or 0, +-subnormals, +-1e200, +-inf and nan."""
    return st.one_of(
        st.floats(low, high),
        st.floats(),
        st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e200, -1e200,
                         math.inf, -math.inf, math.nan]),
    )


def _solvable_spectrum(a, c, n):
    """The solvable model's spectrum: a + n*c on the flat mode, which carries all
    the weight, and a on the rest (Chain's closed form, without its factor)."""
    check_model("solvable", a, c, n)
    return WeightSpectrum(np.r_[a + n * c, np.full(n - 1, a)], np.r_[1.0, np.zeros(n - 1)])


class TestClosedFormsAnswerOrRaise:
    @settings(max_examples=400, deadline=None)
    @given(a=_edgy(0.0, 10.0), c=_edgy(-1.0, 10.0), n=st.integers(1, 2000),
           gamma=_edgy(0.0, 1.0), aw=_edgy(-30.0, 30.0), awp=_edgy(-30.0, 30.0),
           shift=_edgy(-10.0, 10.0))
    @example(a=1.0, c=0.0, n=1, gamma=2.2250738585e-313, aw=1e200, awp=0.0, shift=0.0)
    def test_finite_positive_or_estlab_error(self, a, c, n, gamma, aw, awp, shift):
        # Never a ZeroDivisionError, and never a silent inf, nan or 0.
        calls = [
            lambda: fi_wva_solvable(a, c, n, gamma, aw),
            lambda: fi_opm_solvable(a, c, n, gamma, aw, awp)[:2],
            lambda: fi_eigen(_solvable_spectrum(a, c, n), mean_shift=shift),
        ]
        for call in calls:
            try:
                fi, var = call()
            except EstlabError:
                continue
            assert 0.0 < fi < math.inf and 0.0 < var < math.inf, (fi, var)

    @settings(max_examples=300, deadline=None)
    @given(a=st.one_of(st.floats(0.01, 10.0), _edgy(0.0, 10.0)),
           c=st.one_of(st.floats(0.0, 10.0), _edgy(-1.0, 10.0)), n=st.integers(1, 2000),
           entries=st.lists(st.one_of(
               st.tuples(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                         st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
               st.tuples(_edgy(0.0, 1.0), _edgy(-30.0, 30.0), _edgy(-30.0, 30.0)),
           ), min_size=1, max_size=6))
    @example(a=1.0, c=0.5, n=100, entries=[(0.3, -1.5, 0.6), (0.0, 1.0, 1.0), (0.5, 1.0, -1.0)])
    @example(a=1.0, c=-0.005, n=100, entries=[(0.3, -1.5, 0.6), (0.7, 2.0, -0.5)])
    @example(a=1.0, c=0.5, n=100, entries=[(0.3, -1.5, 0.6), (0.5, 0.0, 0.0)])
    def test_opm_array_is_its_scalar_calls(self, a, c, n, entries):
        # Bit for bit where every entry answers; else the error of an entry's
        # scalar call, which is that entry's if it alone is bad.
        scalars = []
        for entry in entries:
            try:
                fi, var, terms = fi_opm_solvable(a, c, n, *entry)
            except EstlabError as exc:
                scalars.append((type(exc), str(exc)))
            else:
                assert all(type(v) is float for v in (fi, var, *terms))
                scalars.append((fi, var, *terms))
        arrays = [np.array(column) for column in zip(*entries)]
        errors = {s for s in scalars if isinstance(s[0], type)}
        if errors:
            with pytest.raises(EstlabError) as raised:
                fi_opm_solvable(a, c, n, *arrays)
            assert (type(raised.value), str(raised.value)) in errors
        else:
            fi, var, terms = fi_opm_solvable(a, c, n, *arrays)
            got = np.vstack([fi, var, *terms]).T
            assert got.view(np.int64).tolist() == np.array(scalars).view(np.int64).tolist()

    def test_opm_near_minus_a_over_n_is_n_over_a(self):
        # c < 0: the block terms cancel, not the value, which is N/a.
        fi, _, _ = fi_opm_solvable(1.0, -0.000999999999, 1000, 0.3, *spin_coefficients(0.3))
        assert fi == 1000.0000000000002

    @pytest.mark.parametrize("a", [1e-12, 1e-20])
    def test_opm_cancelling_value_is_numeric_failure(self, a):
        # c >= 0: the Sherman-Morrison value cancelled here, to 1.0000889 and
        # to 0.0 at a = 1e-20, and was refused; the c >= 0 form has no
        # cancelling terms, so the answer is now the exact 10/(10 + a).
        want = 10.0 / (10.0 + a)
        fi, _, _ = fi_opm_solvable(a, 1.0, 10, 0.5, 1.0, 1.0)
        assert abs(fi - want) <= 1e-15 * want

    @pytest.mark.parametrize("call", [
        lambda: fi_opm_solvable(1.0, 0.05, 10, 0.5, 0.0, 0.0),
        lambda: fi_opm_solvable(1.0, 0.05, 10, 0.5, math.inf, 1.0),
        lambda: fi_wva_solvable(1.0, 0.05, 10, 0.5, 1e-200),
        lambda: fi_wva_solvable(1.0, 0.05, 10, 0.5, 1e200),
        lambda: fi_eigen(make_covariance(CovSpec("solvable", 1.0, 0.05, 10)).spectrum(),
                         mean_shift=1e-200),
        lambda: fi_eigen(make_covariance(CovSpec("solvable", 1.0, 0.05, 10)).spectrum(),
                         mean_shift=1e200),
    ], ids=["opm-zero-pair", "opm-inf-aw", "wva-underflow", "wva-overflow",
            "eigen-underflow", "eigen-overflow"])
    def test_coefficient_whose_square_leaves_the_normal_floats_is_invalid_spec(self, call):
        # Once a ZeroDivisionError, an InvalidSpectrum, or an inf returned.
        with pytest.raises(InvalidSpec, match="must square to a finite normal float"):
            call()


class TestEqualWeightVariance:
    def test_solvable_closed_form(self):
        m = build(CovSpec("solvable", 1.0, 0.05, 100))
        assert 1.0 / direct(Dense(m))[1] == pytest.approx(
            0.06, rel=1e-12
        )

    def test_white(self):
        m = build(CovSpec("white", 1.0, 0.05, 20))
        assert 1.0 / direct(Dense(m))[1] == pytest.approx(
            1.05 / 20, rel=1e-12
        )

    def test_background_subtraction_signs_kill_offset(self):
        a, c, n = 1.0, 0.4, 50
        m = build(CovSpec("solvable", a, c, n))
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        # Oracle: direct numeric contraction of the coefficient vector.
        oracle = float(signs @ m.entries @ signs) / float(signs @ signs) ** 2
        value = 1.0 / fi_matched(Dense(m), signs)[1]
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(a / n, rel=1e-12)

    def test_mu_prime_length_checked(self):
        with pytest.raises(InvalidSpec, match="columns of length 3, got shape \\(2,\\)"):
            fi_matched(Dense(SymMatrix(np.eye(3))), np.ones(2))


class TestInformationInequalities:
    @settings(deadline=None, max_examples=60)
    @given(dim=st.integers(1, 64), seed=st.integers(0, 2**31 - 1))
    def test_cramer_rao_bound(self, dim, seed):
        m = random_spd(dim, seed)
        fi, iv = direct(Dense(m))
        assert fi / iv >= 1.0 - 1e-12

    @settings(deadline=None, max_examples=100)
    @given(
        scheme=st.sampled_from(["periodic", "bernoulli"]),
        n=st.floats(math.log(2.0), math.log(2000.0)).map(lambda x: int(math.exp(x))),
        a=st.floats(-2.0, 2.0).map(lambda x: 10.0**x),
        c=st.one_of(st.just(0.0), st.floats(-3.0, 2.0).map(lambda x: 10.0**x)),
        gamma=st.floats(1e-3, 0.9),
        eta=st.one_of(st.just(0.0), st.floats(-2.0, 6.0).map(lambda x: 10.0**x),
                      st.just(math.inf)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_all_slots_inform_at_least_the_retained_ones(
        self, scheme, n, a, c, gamma, eta, seed
    ):
        # Schur complement: (C^-1)_RR >= (C_RR)^-1, so the optimal analysis of
        # a WVA design (its mu' on all slots) never loses to the retained block
        # alone, and the two agree for white noise, where no slot informs
        # another.  Both are computed only to rounding, hence the 1e-12 slack.
        design = make_design(n, scheme, gamma=gamma, seed=seed)
        retained = design.retained
        assume(retained.size > 0)
        cov = Chain(a, c, eta, np.arange(n))
        full, _ = fi_matched(cov, design.mu_prime)
        wva = design.aw * design.aw * float(cov.restrict(retained).quad(np.ones(retained.size)))
        assert full >= wva * (1.0 - 1e-12)
        if eta == 0.0:
            assert full == pytest.approx(wva, rel=1e-12)

    @pytest.mark.parametrize(
        "a,c,n", [(1.0, 0.05, 10), (2.0, 1.5, 100), (1.0, -0.004, 200), (0.3, 0.0, 7)]
    )
    def test_solvable_saturates_bound(self, a, c, n):
        m = build(CovSpec("solvable", a, c, n))
        fi, iv = direct(Dense(m))
        assert abs(fi / iv - 1.0) <= 1e-10

    @pytest.mark.parametrize("n", [2, 16, 100, 512])
    def test_cross_method_agreement(self, n):
        a, c = 1.0, 0.05
        closed = fi_wva_solvable(a, c, n, 1.0, 1.0)[0]  # gamma = 1: direct closed form
        numeric, _ = direct(Dense(build(CovSpec("solvable", a, c, n))))
        spectrum = make_covariance(CovSpec("solvable", a, c, n)).spectrum()
        eigen = fi_eigen(spectrum)[0]
        assert numeric == pytest.approx(closed, rel=1e-8)
        assert eigen == pytest.approx(closed, rel=1e-8)
