import math

import numpy as np
import pytest

from estlab.covariance import CovSpec, WeightSpectrum, make_covariance
from estlab.errors import InvalidSpec, InvalidSpectrum, NotPositiveDefinite
from estlab.experiments import delta_i, fig7_sweep
from estlab.fisher import fi_opm_solvable, fi_wva_solvable
from estlab.matkernel import SymMatrix

from conftest import Dense, build, eigendecompose, random_spd, solvable_inverse


class TestCovSpec:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            CovSpec("gaussian", 1.0, 0.0, 4)

    def test_solvable_c_bound(self):
        CovSpec("solvable", 1.0, -0.24, 4)
        # The boundary c = -a/n has a zero eigenvalue a + n*c.
        for c in (-1.0 / 4, -0.3):
            with pytest.raises(InvalidSpec):
                CovSpec("solvable", 1.0, c, 4)

    def test_solvable_rejects_eta(self):
        with pytest.raises(InvalidSpec):
            CovSpec("solvable", 1.0, 0.1, 4, eta=1.0)

    def test_exponential_requires_eta(self):
        with pytest.raises(InvalidSpec):
            CovSpec("exponential", 1.0, 0.1, 4)

    def test_exponential_rejects_negative_c(self):
        with pytest.raises(InvalidSpec):
            CovSpec("exponential", 1.0, -0.1, 4, eta=1.0)

    def test_white_rejects_negative_c(self):
        with pytest.raises(InvalidSpec):
            CovSpec("white", 1.0, -0.1, 4)

    def test_negative_a(self):
        with pytest.raises(InvalidSpec):
            CovSpec("solvable", -1.0, 0.1, 4)

    def test_bad_n(self):
        with pytest.raises(InvalidSpec):
            CovSpec("solvable", 1.0, 0.1, 0)


# Every entry point that takes a model's (a, c, n) applies covariance.check_model.
MODEL_ENTRY_POINTS = {
    "CovSpec-solvable": lambda a, c, n: CovSpec("solvable", a, c, n),
    "CovSpec-white": lambda a, c, n: CovSpec("white", a, c, n),
    "CovSpec-exponential": lambda a, c, n: CovSpec("exponential", a, c, n, eta=1.0),
    "fi_wva_solvable": lambda a, c, n: fi_wva_solvable(a, c, n, 0.5, 1.0),
    "fi_opm_solvable": lambda a, c, n: fi_opm_solvable(a, c, n, 0.5, 1.0, -1.0),
    "fig7_sweep": lambda a, c, n: fig7_sweep(n=n, a=a, c=c, gamma=0.5, eta_grid=[1.0]),
    "delta_i": delta_i,
}


# Each triple is outside every model's domain: non-finite, a fractional or
# zero n, or singular by construction (c = -a/n for the solvable model, a
# negative c for the others, a = c = 0 for all).
@pytest.mark.parametrize("a,c,n", [
    (math.nan, 0.05, 10), (math.inf, 0.05, 10), (-1.0, 0.05, 10),
    (1.0, math.nan, 10), (1.0, math.inf, 10), (1.0, -math.inf, 10),
    (1.0, 0.05, 10.5), (1.0, 0.05, 0), (0.0, 0.0, 10), (1.0, -0.1, 10),
])
@pytest.mark.parametrize("entry", list(MODEL_ENTRY_POINTS))
def test_one_domain_rule_everywhere(entry, a, c, n):
    with pytest.raises(InvalidSpec):
        MODEL_ENTRY_POINTS[entry](a, c, n)


@pytest.mark.parametrize("entry", list(MODEL_ENTRY_POINTS))
def test_only_the_solvable_model_needs_white_noise(entry):
    # K all ones has rank 1, so the solvable model with a = 0 is singular; an
    # exponential K at finite eta is positive definite on its own.
    if entry in ("CovSpec-white", "CovSpec-exponential", "fig7_sweep"):
        MODEL_ENTRY_POINTS[entry](0.0, 0.05, 10)
    else:
        with pytest.raises(InvalidSpec):
            MODEL_ENTRY_POINTS[entry](0.0, 0.05, 10)


class TestBuild:
    def test_solvable_small(self):
        m = build(CovSpec("solvable", 1.0, 2.0, 2))
        assert np.array_equal(m.entries, [[3.0, 2.0], [2.0, 3.0]])

    def test_exponential_entries(self):
        m = build(CovSpec("exponential", 1.0, 0.05, 3, eta=1.0))
        expected = np.array(
            [
                [1.05, 0.05 * math.exp(-1.0), 0.05 * math.exp(-2.0)],
                [0.05 * math.exp(-1.0), 1.05, 0.05 * math.exp(-1.0)],
                [0.05 * math.exp(-2.0), 0.05 * math.exp(-1.0), 1.05],
            ]
        )
        assert np.allclose(m.entries, expected, rtol=1e-15)

    def test_exponential_eta_zero_is_white(self):
        m = build(CovSpec("exponential", 1.0, 0.5, 4, eta=0.0))
        assert np.array_equal(m.entries, 1.5 * np.eye(4))

    def test_white_kind(self):
        m = build(CovSpec("white", 1.0, 0.05, 3))
        assert np.array_equal(m.entries, 1.05 * np.eye(3))


class TestSolvableSpectrum:
    def test_example(self):
        ws = make_covariance(CovSpec("solvable", 1.0, 2.0, 3)).spectrum()
        assert np.array_equal(ws.sigmasq, [7.0, 1.0, 1.0])
        assert np.array_equal(ws.weights, [1.0, 0.0, 0.0])

    def test_white_case(self):
        ws = make_covariance(CovSpec("solvable", 2.0, 0.0, 5)).spectrum()
        assert np.array_equal(ws.sigmasq, np.full(5, 2.0))
        assert ws.weights[0] == 1.0

    def test_boundary_rejected(self):
        with pytest.raises(InvalidSpec):
            CovSpec("solvable", 1.0, -1.0 / 8, 8)

    def test_weights_sum_exactly(self):
        ws = make_covariance(CovSpec("solvable", 1.0, 0.3, 64)).spectrum()
        assert abs(ws.weights.sum() - 1.0) <= 1e-12


class TestSpectrumFromMatrix:
    def test_identity(self):
        ws = Dense(SymMatrix(np.eye(4))).spectrum()
        assert abs(ws.weights.sum() - 1.0) <= 1e-10
        assert np.allclose(ws.sigmasq, 1.0)
        # Fisher check: N * sum(w / sigma^2) = N.
        assert 4 * (ws.weights / ws.sigmasq).sum() == pytest.approx(4.0)

    def test_matches_solvable_closed_form(self):
        m = build(CovSpec("solvable", 1.0, 2.0, 3))
        ws = Dense(m).spectrum()
        closed = make_covariance(CovSpec("solvable", 1.0, 2.0, 3)).spectrum()
        assert np.allclose(np.sort(ws.sigmasq), np.sort(closed.sigmasq), rtol=1e-9)
        assert ws.weights[0] == pytest.approx(1.0, abs=1e-10)

    def test_random_spd_equal_weight_identity(self):
        # sum_k sigma^2_k w_k / N equals the variance of the plain mean,
        # (1/N^2) * sum_ij C_ij.
        m = random_spd(16, seed=3)
        ws = Dense(m).spectrum()
        lhs = (ws.sigmasq * ws.weights).sum() / 16
        rhs = m.entries.sum() / 256
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            Dense(SymMatrix([[1.0, 1.0], [1.0, 1.0]])).spectrum()


class TestSolvableInverse:
    def test_white_is_identity_scaled(self):
        m = solvable_inverse(1.0, 0.0, 5)
        assert np.allclose(m.entries, np.eye(5), atol=0.0)

    def test_closed_form_entries(self):
        m = solvable_inverse(1.0, 0.5, 4)
        expected = (3.0 * np.eye(4) - 0.5) / 3.0
        assert np.allclose(m.entries, expected, rtol=1e-15)

    def test_multiply_back(self):
        inv = solvable_inverse(2.0, 0.1, 10)
        cov = build(CovSpec("solvable", 2.0, 0.1, 10))
        assert np.abs(inv.entries @ cov.entries - np.eye(10)).max() <= 1e-12

    def test_boundary_rejected(self):
        with pytest.raises(InvalidSpec):
            solvable_inverse(1.0, -0.25, 4)


class TestWeightSpectrumValidation:
    def test_rejects_zero_eigenvalue(self):
        with pytest.raises(InvalidSpectrum):
            WeightSpectrum(np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(InvalidSpectrum):
            WeightSpectrum(np.array([1.0, 2.0]), np.array([0.7, 0.7]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidSpectrum):
            WeightSpectrum(np.array([1.0, 2.0]), np.array([1.0]))


class TestModelProperties:
    @pytest.mark.parametrize("n", [2, 17, 128, 512])
    def test_solvable_eigenvalues_match_closed_form(self, n):
        a, c = 1.3, 0.21
        eig = eigendecompose(build(CovSpec("solvable", a, c, n)))
        expected = np.full(n, a)
        expected[0] = n * c + a
        assert np.allclose(eig.eigenvalues, expected, rtol=1e-9)

    @pytest.mark.parametrize("n", [2, 17, 128])
    def test_solvable_negative_c_eigenvalues(self, n):
        a, c = 1.0, -0.5 / n
        eig = eigendecompose(build(CovSpec("solvable", a, c, n)))
        expected = np.sort(np.append(np.full(n - 1, a), n * c + a))[::-1]
        assert np.allclose(eig.eigenvalues, expected, rtol=1e-9)

    @pytest.mark.parametrize(
        "a,c,n", [(1.0, 0.05, 8), (2.0, 0.3, 33), (0.7, 0.0, 12), (1.0, -0.01, 50)]
    )
    def test_summed_inverse_identity(self, a, c, n):
        total = solvable_inverse(a, c, n).entries.sum()
        assert total == pytest.approx(n / (n * c + a), rel=1e-10)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0, 7.5, 200.0])
    @pytest.mark.parametrize("a,c", [(1.0, 0.05), (0.5, 2.0), (1.0, 0.0)])
    def test_exponential_is_psd(self, a, c, eta):
        m = build(CovSpec("exponential", a, c, 40, eta=eta))
        eig = eigendecompose(m)
        assert eig.eigenvalues[-1] >= -1e-10 * eig.eigenvalues[0]

    def test_summed_exponential_inverse_monotone_in_eta(self):
        # More correlation time means less information in the plain sum.
        etas = np.logspace(-2, 4, 25)
        ones = np.ones(64)
        values = []
        for eta in etas:
            m = build(CovSpec("exponential", 1.0, 0.05, 64, eta=float(eta)))
            values.append(float(ones @ Dense(m).solve(ones)))
        values = np.array(values)
        assert (np.diff(values) <= 1e-12 * values[:-1]).all()
