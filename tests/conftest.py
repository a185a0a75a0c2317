"""Shared test helpers, and the dense and per-sample oracles estlab is held to.

``build``, ``submatrix`` and ``Dense`` materialize a covariance as an n x n
SymMatrix and evaluate every ``estlab.covariance.Covariance`` operation on
it with the dense kernel (``factor_spd``: Cholesky, ``eigendecompose``:
eigh): O(n^2) memory and O(n^3) work, but no structure to get wrong.  The
``estimate_*`` functions apply one estimator to one Dataset from its textbook
formula, the reference for the weights ``estlab.estimators`` builds once per
run.  ``column`` reads one column of a SweepResult as a float array, and
``block_terms`` is the numeric (I1, I2, I3) split of a two-channel design's
information that the closed terms of ``fi_opm_solvable`` are held to.
``fig2_pointwise``, ``fig345_pointwise`` and ``fig6_pointwise`` are the
studies evaluated one grid point at a time, the scalar oracle of their
whole-grid evaluation, and ``per_cell_csv`` is write_csv with every cell
formatted by itself (``_format_cell``), the byte oracle of its per-list
formatting.
"""

import io
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.linalg import block_diag, cho_solve

from estlab.covariance import (
    KIND_SOLVABLE,
    KIND_WHITE,
    PSD_TOLERANCE,
    CovSpec,
    WeightSpectrum,
    make_covariance,
    subset_index,
)
from estlab.errors import InvalidSpec, NotPositiveDefinite, NumericFailure
from estlab.estimators import Dataset
from estlab.experiments import DEFAULT_CURVE_SPECS, SweepResult, write_csv
from estlab.fisher import (
    TwoOutcomeSpec,
    fi_matched,
    fi_opm_solvable,
    fi_two_outcome,
    optimal_alpha,
    two_outcome_variance,
)
from estlab.matkernel import SymMatrix
from estlab.partition import CHANNEL_RETAINED, make_design, spin_model


class ConvergenceFailure(NumericFailure):
    """An eigenvalue routine exhausted its iteration budget."""


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in descending order with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def factor_spd(matrix: SymMatrix) -> np.ndarray:
    """Cholesky factor L (lower triangular) with L @ L.T == matrix.

    Raises NotPositiveDefinite when a pivot is non-positive or its square
    falls at or below PSD_TOLERANCE relative to the largest diagonal entry,
    the same test covariance.Chain applies to its pivots.
    """
    a = matrix.entries
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            "matrix is not positive definite (non-positive Cholesky pivot)"
        ) from exc
    pivots = np.diagonal(lower)
    if (pivots * pivots <= PSD_TOLERANCE * np.diagonal(a).max()).any():
        raise NotPositiveDefinite("matrix has an effectively zero variance direction")
    return lower


def eigendecompose(matrix: SymMatrix) -> EigenSystem:
    """Full symmetric eigendecomposition, eigenvalues sorted descending."""
    try:
        values, vectors = np.linalg.eigh(matrix.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure("symmetric eigensolver failed to converge") from exc
    return EigenSystem(eigenvalues=values[::-1].copy(), eigenvectors=vectors[:, ::-1].copy())


def column(result: SweepResult, header: str) -> np.ndarray:
    """Values of one column of ``result`` as a float array."""
    k = result.headers.index(header)
    return np.array([row[k] for row in result.rows], dtype=float)


def _format_cell(value) -> str:
    """One CSV cell formatted by itself, as write_csv once formatted every cell."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def per_cell_csv(result: SweepResult) -> str:
    """write_csv's text, each cell of each row formatted by itself with _format_cell."""
    buf = io.StringIO()
    write_csv(replace(result, blocks=[]), buf)
    for row in result.rows:
        buf.write(",".join(_format_cell(v) for v in row) + "\n")
    return buf.getvalue()


def fig2_pointwise(x_grid, r_grid) -> list[tuple]:
    """fig2_surface's rows, one TwoOutcomeSpec and one fi_two_outcome call per point."""
    rows = []
    for x in np.asarray(x_grid, dtype=float):
        for r in np.asarray(r_grid, dtype=float):
            info = fi_two_outcome(TwoOutcomeSpec.from_xr(x, r))
            rows.append((x, r, 1.0 / (info * math.sqrt(x))))
    return rows


def fig345_pointwise(alpha_grid) -> list[tuple]:
    """fig345_curves's rows, one two_outcome_variance call per curve and alpha."""
    rows = []
    for x, r in DEFAULT_CURVE_SPECS:
        spec = TwoOutcomeSpec.from_xr(x, r)
        alpha_star = optimal_alpha(spec)
        minimum = two_outcome_variance(spec, alpha_star)
        for alpha in np.asarray(alpha_grid, dtype=float):
            rows.append(
                (x, r, alpha, two_outcome_variance(spec, alpha), alpha_star, minimum)
            )
    return rows


def fig6_pointwise(n: int, c_over_a: float, phi_grid) -> list[tuple]:
    """fig6_decomposition's rows, one spin_model, make_design and fi_opm_solvable call per phi."""
    a = 1.0
    c = c_over_a * a
    unit = n / a
    models = [spin_model(phi) for phi in np.asarray(phi_grid, dtype=float).tolist()]
    retained = [min(max(int(round(m.gamma * n)), 1), n - 1) for m in models]
    mu_prime = np.column_stack(
        [make_design(n, "blocks", gamma=n1 / n).mu_prime for n1 in retained]
    )
    numeric, _ = fi_matched(make_covariance(CovSpec(KIND_SOLVABLE, a, c, n)), mu_prime)
    rows = []
    for phi, m, n1, total_numeric in zip(phi_grid, models, retained, numeric.tolist()):
        total, _, terms = fi_opm_solvable(a, c, n, m.gamma, m.aw, m.awp)
        rows.append((float(phi), m.gamma, n1, *(term / unit for term in terms),
                     total / unit, total_numeric / unit))
    return rows


def block_terms(cov, design) -> tuple[float, float, float]:
    """(I1, I2, I3) of mu'C^-1 mu' for a two-channel design.

    I1 and I2 contract each channel's mean coefficients with its own block of
    the inverse of the whole matrix (not the inverse of its sub-block), and
    I3 is the two cross blocks; the three sum to the information.
    """
    mu = design.mu_prime
    masked = np.zeros((cov.dim, 2))
    for k in range(2):
        sel = design.assignment == k
        masked[sel, k] = mu[sel]
    blocks = masked.T @ cov.solve(masked)
    return float(blocks[0, 0]), float(blocks[1, 1]), float(blocks[0, 1] + blocks[1, 0])


def random_spd(dim: int, seed: int, cond_lo: float = 0.1, cond_hi: float = 10.0) -> SymMatrix:
    """Random SPD matrix O @ D @ O.T with log-uniform positive eigenvalues."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    d = np.exp(rng.uniform(np.log(cond_lo), np.log(cond_hi), size=dim))
    return SymMatrix((q * d) @ q.T)


def solvable_inverse(a: float, c: float, n: int) -> SymMatrix:
    """Exact inverse of the solvable covariance.

    Entries are ((a + c*n)*delta_ij - c) / (a^2 + n*a*c); multiplying back
    against build() gives the identity to machine precision.
    """
    if a <= 0.0:
        raise InvalidSpec("solvable inverse requires a > 0")
    if c <= -a / n:
        raise InvalidSpec("solvable inverse requires c > -a/n")
    denom = a * a + n * a * c
    m = np.full((n, n), -c / denom)
    m[np.diag_indices(n)] += (a + c * n) / denom
    return SymMatrix(m)


def build(spec: CovSpec) -> SymMatrix:
    """Materialize the covariance matrix described by ``spec``."""
    eta = {KIND_SOLVABLE: np.inf, KIND_WHITE: 0.0}.get(spec.kind, spec.eta)
    return chain_matrix(spec.a, spec.c, eta, spec.n)


def chain_matrix(a: float, c: float, eta: float, n: int) -> SymMatrix:
    """a*I + c*K with K_ij = exp(-|i-j|/eta) on the slots 0 .. n-1, any (a, c).

    eta = 0 is mapped to the white limit exactly (diagonal a + c) instead of
    evaluating exp(-inf), which would be 0/0 on the diagonal; eta = inf
    gives K all ones, the solvable model.
    """
    if eta == 0.0:
        return SymMatrix((a + c) * np.eye(n))
    idx = np.arange(n)
    m = c * np.exp(-np.abs(idx[:, None] - idx[None, :]) / eta)
    m[np.diag_indices(n)] += a
    return SymMatrix(m)


def submatrix(matrix: SymMatrix, retained) -> SymMatrix:
    """Covariance restricted to the retained slots: C'[k, l] = C[i_k, i_l]."""
    idx = subset_index(retained, matrix.dim)
    return SymMatrix(matrix.entries[np.ix_(idx, idx)])


def _columns(U, dim: int) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    if U.ndim not in (1, 2) or U.shape[0] != dim:
        raise InvalidSpec(
            f"expected a vector or columns of length {dim}, got shape {U.shape}"
        )
    return U.reshape(dim, -1)


class Dense:
    """The covariance operations on a materialized SymMatrix, for any SPD C.

    With ``segments`` (slot slices, as ``Chain.segments``) C is block
    diagonal, and ``quad`` and ``form`` contract each segment's block alone.
    """

    def __init__(self, matrix: SymMatrix, segments=None) -> None:
        self.matrix = matrix
        self.segments = segments
        self._lower = None

    def _parts(self, shape: tuple) -> tuple[list[slice], tuple]:
        """The slots of each segment, and the shape of quad's and form's result."""
        if self.segments is None:
            return [slice(None)], shape
        return list(self.segments), (len(self.segments),) + shape

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def lower(self) -> np.ndarray:
        """Cholesky factor L of the matrix (factor_spd), L @ L.T == C."""
        if self._lower is None:
            self._lower = factor_spd(self.matrix)
        return self._lower

    def solve(self, U) -> np.ndarray:
        return cho_solve((self.lower, True), _columns(U, self.dim)).reshape(np.shape(U))

    def loading(self, U) -> np.ndarray:
        return (self.lower.T @ _columns(U, self.dim)).reshape(np.shape(U))

    def quad(self, U) -> np.ndarray:
        parts, shape = self._parts(np.shape(U)[1:])
        U = _columns(U, self.dim)
        X = self.solve(U)
        return np.array([[u[s] @ x[s] for u, x in zip(U.T, X.T)] for s in parts]).reshape(shape)

    def form(self, U) -> np.ndarray:
        parts, shape = self._parts(np.shape(U)[1:])
        U = _columns(U, self.dim)
        entries = self.matrix.entries
        return np.array([
            [(entries[s, s] * np.outer(u[s], u[s])).sum() for u in U.T] for s in parts
        ]).reshape(shape)

    def exact_form(self, u) -> float:
        """u'C u as the correctly rounded sum of the n^2 products (math.fsum)."""
        return math.fsum((self.matrix.entries * np.outer(u, u)).ravel())

    def restrict(self, idx) -> "Dense":
        """The retained slots idx; a list of index sets gives the block
        diagonal of their blocks, one segment per set."""
        if not (isinstance(idx, list) and idx and np.ndim(idx[0]) == 1):
            return Dense(submatrix(self.matrix, idx))
        blocks = [submatrix(self.matrix, s).entries for s in idx]
        bounds = np.cumsum([0] + [len(b) for b in blocks]).tolist()
        return Dense(SymMatrix(block_diag(*blocks)), tuple(map(slice, bounds[:-1], bounds[1:])))

    def spectrum(self) -> WeightSpectrum:
        eig = eigendecompose(self.matrix)
        values = eig.eigenvalues
        if values[0] <= 0.0 or values[-1] <= PSD_TOLERANCE * values[0]:
            raise NotPositiveDefinite("covariance matrix is not positive definite")
        column_sums = eig.eigenvectors.sum(axis=0)
        weights = column_sums * column_sums / self.dim
        return WeightSpectrum(sigmasq=values.copy(), weights=weights)


def estimate_equal_weight(data: Dataset) -> float:
    """Arithmetic mean of the samples."""
    return float(np.mean(data.samples))


def estimate_ml(data: Dataset, cov) -> float:
    """(mu' C^-1 s) / (mu' C^-1 mu'), the minimum-variance unbiased estimate."""
    mu = data.design.mu_prime
    weights = cov.solve(mu)
    return float(weights @ data.samples) / float(weights @ mu)


def estimate_wva(data: Dataset) -> float:
    """sum(s_retained) / (Aw * m), m the realized retained count."""
    design = data.design
    retained = design.channel_slots(CHANNEL_RETAINED)
    aw = design.coefficient(CHANNEL_RETAINED)
    return float(data.samples[retained].sum()) / (aw * retained.size)


def estimate_background_subtraction(data: Dataset) -> float:
    """Sum of the +1 slots minus sum of the -1 slots, over n."""
    return float(data.design.mu_prime @ data.samples) / data.design.n


def estimate_wva_corrected(data: Dataset, a: float, c: float) -> float:
    """The weak-value estimate minus Aw*c*gamma/(a + n*c) times the sum of all samples."""
    design = data.design
    aw = design.coefficient(CHANNEL_RETAINED)
    gamma = design.channel_slots(CHANNEL_RETAINED).size / design.n
    prefactor = aw * c * gamma / (a + design.n * c)
    return estimate_wva(data) - prefactor * float(data.samples.sum())


@pytest.fixture
def spd_factory():
    return random_spd
