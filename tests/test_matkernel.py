import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estlab.covariance import CovSpec
from estlab.errors import InvalidSpec, NotPositiveDefinite
from estlab.matkernel import SymMatrix

from conftest import Dense, build, eigendecompose, factor_spd, random_spd


def inverse(matrix: SymMatrix) -> SymMatrix:
    """Explicit inverse via Cholesky; product with the input is the identity."""
    inv = Dense(matrix).solve(np.eye(matrix.dim))
    return SymMatrix(0.5 * (inv + inv.T))


def quadratic_form(matrix: SymMatrix, u: np.ndarray, v: np.ndarray) -> float:
    """u.T @ inverse(matrix) @ v without forming the inverse."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or v.ndim != 1:
        raise InvalidSpec("quadratic_form expects one-dimensional vectors")
    if u.size != matrix.dim or v.size != matrix.dim:
        raise InvalidSpec(
            f"vector lengths {u.size}, {v.size} do not match dimension {matrix.dim}"
        )
    return float(u @ Dense(matrix).solve(v))


class TestSymMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(InvalidSpec, match=r"expected a square matrix, got shape \(2, 3\)"):
            SymMatrix(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(InvalidSpec, match="matrix dimension must be at least 1"):
            SymMatrix(np.zeros((0, 0)))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidSpec, match="matrix is not symmetric"):
            SymMatrix([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidSpec, match="matrix entries must be finite"):
            SymMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_entries_are_read_only(self):
        m = SymMatrix(np.eye(3))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 2.0

    def test_symmetrizes_roundoff_skew(self):
        a = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        m = SymMatrix(a)
        assert np.array_equal(m.entries, m.entries.T)


class TestFactorSpd:
    def test_identity(self):
        lower = factor_spd(SymMatrix(np.eye(3)))
        assert np.allclose(lower, np.eye(3), atol=0.0)

    def test_hand_factorization(self):
        lower = factor_spd(SymMatrix([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(lower, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)
        assert np.allclose(lower @ lower.T, [[4.0, 2.0], [2.0, 5.0]], rtol=1e-10)

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            factor_spd(SymMatrix([[1.0, -1.0], [-1.0, 1.0]]))

    def test_solvable_boundary_rejected(self):
        # c = -a/n puts a zero eigenvalue on the flat direction.
        n = 6
        m = SymMatrix(np.eye(n) - np.full((n, n), 1.0 / n))
        with pytest.raises(NotPositiveDefinite):
            factor_spd(m)

    def test_negative_definite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            factor_spd(SymMatrix(-np.eye(2)))


class TestInverse:
    def test_identity(self):
        assert np.array_equal(inverse(SymMatrix(np.eye(5))).entries, np.eye(5))

    def test_solvable_closed_form(self):
        # a=1, c=0.5, n=4: inverse entries are (3*delta_ij - 0.5) / 3.
        m = build(CovSpec("solvable", 1.0, 0.5, 4))
        expected = (3.0 * np.eye(4) - 0.5) / 3.0
        assert np.allclose(inverse(m).entries, expected, rtol=1e-12)

    def test_multiply_back_random(self):
        m = random_spd(8, seed=2024)
        prod = m.entries @ inverse(m).entries
        assert np.allclose(prod, np.eye(8), atol=1e-9)


class TestEigendecompose:
    def test_already_diagonal(self):
        eig = eigendecompose(SymMatrix(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(eig.eigenvalues, [3.0, 2.0, 1.0], atol=0.0)

    def test_solvable_eigenvalues(self):
        eig = eigendecompose(build(CovSpec("solvable", 1.0, 2.0, 3)))
        assert np.allclose(eig.eigenvalues, [7.0, 1.0, 1.0], rtol=1e-12)

    @pytest.mark.parametrize("r", [-0.9, -0.3, 0.0, 0.4, 0.99])
    def test_2x2_correlation(self, r):
        eig = eigendecompose(SymMatrix([[1.0, r], [r, 1.0]]))
        assert np.allclose(eig.eigenvalues, [1.0 + abs(r), 1.0 - abs(r)], rtol=1e-12)

    def test_descending_order_and_orthonormal(self):
        m = random_spd(12, seed=7)
        eig = eigendecompose(m)
        assert (np.diff(eig.eigenvalues) <= 0.0).all()
        gram = eig.eigenvectors @ eig.eigenvectors.T
        assert np.abs(gram - np.eye(12)).max() <= 1e-10 * 12

    def test_reconstruction(self):
        m = random_spd(10, seed=8)
        eig = eigendecompose(m)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
        rel = np.linalg.norm(rebuilt - m.entries) / np.linalg.norm(m.entries)
        assert rel <= 1e-9


class TestQuadraticForm:
    def test_identity_ones(self):
        n = 7
        assert quadratic_form(SymMatrix(np.eye(n)), np.ones(n), np.ones(n)) == pytest.approx(n)

    def test_solvable_closed_form_large(self):
        # ones' C^-1 ones on the solvable model is n / (a + n*c) = 1000/51.
        m = build(CovSpec("solvable", 1.0, 0.05, 1000))
        ones = np.ones(1000)
        value = quadratic_form(m, ones, ones)
        assert value == pytest.approx(19.607843137254903, rel=1e-10)

    def test_orthogonal_vectors_diagonal(self):
        m = SymMatrix(np.diag([2.0, 3.0, 4.0]))
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        assert quadratic_form(m, e1, e2) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidSpec, match="vector lengths 2, 3 do not match dimension 3"):
            quadratic_form(SymMatrix(np.eye(3)), np.ones(2), np.ones(3))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            quadratic_form(SymMatrix([[1.0, -1.0], [-1.0, 1.0]]), np.ones(2), np.ones(2))


class TestSolveSpd:
    def test_matches_dense_solve(self):
        m = random_spd(9, seed=11)
        rhs = np.arange(9, dtype=float)
        assert np.allclose(Dense(m).solve(rhs), np.linalg.solve(m.entries, rhs), rtol=1e-9)

    def test_matrix_rhs(self):
        m = random_spd(5, seed=12)
        rhs = np.eye(5)
        assert np.allclose(m.entries @ Dense(m).solve(rhs), np.eye(5), atol=1e-9)


@settings(deadline=None, max_examples=40)
@given(dim=st.integers(1, 64), seed=st.integers(0, 2**31 - 1))
def test_spd_property_suite(dim, seed):
    """Round-trip, inverse, spectrum and quadratic-form contracts on random SPD."""
    m = random_spd(dim, seed)

    inv = inverse(m).entries
    assert np.abs(inv @ m.entries - np.eye(dim)).max() <= 1e-8

    eig = eigendecompose(m)
    assert eig.eigenvalues.sum() == pytest.approx(np.trace(m.entries), rel=1e-9)

    lower = factor_spd(m)
    rel = np.linalg.norm(lower @ lower.T - m.entries) / np.linalg.norm(m.entries)
    assert rel <= 1e-10

    rng = np.random.default_rng(seed)
    u = rng.normal(size=dim)
    v = rng.normal(size=dim)
    direct = quadratic_form(m, u, v)
    explicit = float(u @ inv @ v)
    assert direct == pytest.approx(explicit, rel=1e-9, abs=1e-12)
