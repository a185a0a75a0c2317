"""Covariance operators: the four contractions the strategy code needs.

Every Fisher information and plain-average variance in estlab is one of

* ``quad(U)``      u'C^-1 u for each column u of U,
* ``form(U)``      u'C u for each column,
* ``restrict(idx)``  the covariance of a retained subset of the slots,
* ``spectrum()``   eigenvalues of C with the flat-vector weights.

``Dense`` evaluates them on a materialized SymMatrix and serves the solvable
and white models; it is also the reference the structured operator is tested
against.  Dense is the only code that factors or solves a dense covariance:
it computes its Cholesky factor once, on first use, and every contraction
reuses it.  Two members sit outside the protocol and belong to Dense only:
``lower`` (the factor, which Monte Carlo sampling needs) and ``solve``
(C^-1 U, for the partitioned information and the ml estimator, which only
the solvable and white models reach).

``Exponential`` is white noise plus an Ornstein-Uhlenbeck (AR(1)) kernel on
increasing sample times t,

    C = a*I + c*K,   K_ij = exp(-|t_i - t_j| / eta),

whose K^-1 is tridiagonal (Rybicki & Press 1995), so quad, form and restrict
cost O(n) and never build an n x n array.  A retained subset of an OU chain
is again an OU chain with per-gap correlations rho_k = exp(-dt_k/eta).
``make_covariance`` picks the implementation from the model kind.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np
from scipy.linalg import cho_solve, eigh_tridiagonal

from .covmodel import KIND_EXPONENTIAL, CovSpec, WeightSpectrum, build
from .errors import DimensionMismatch, InvalidSpec, NotPositiveDefinite
from .matkernel import PSD_TOLERANCE, SymMatrix, eigendecompose, factor_spd
from .partition import subset_index, submatrix


class Covariance(Protocol):
    """What strategy code may ask of a covariance; see the module docstring."""

    @property
    def dim(self) -> int: ...

    def quad(self, U) -> np.ndarray: ...

    def form(self, U) -> np.ndarray: ...

    def restrict(self, idx) -> "Covariance": ...

    def spectrum(self) -> WeightSpectrum: ...


def _columns(U, dim: int) -> np.ndarray:
    """U as a (dim, k) array; a vector is one column."""
    U = np.asarray(U, dtype=float)
    if U.ndim not in (1, 2) or U.shape[0] != dim:
        raise DimensionMismatch(
            f"expected a vector or columns of length {dim}, got shape {U.shape}"
        )
    return U.reshape(dim, -1)


class Dense:
    """Operator on a materialized covariance; O(n^2) memory, O(n^3) to factor."""

    def __init__(self, matrix: SymMatrix) -> None:
        self.matrix = matrix
        self._lower: np.ndarray | None = None

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
        """C^-1 U for a vector or column-stacked U, through ``lower``."""
        return cho_solve((self.lower, True), _columns(U, self.dim)).reshape(np.shape(U))

    def quad(self, U) -> np.ndarray:
        shape = np.shape(U)[1:]
        U = _columns(U, self.dim)
        X = self.solve(U)
        return np.array([u @ x for u, x in zip(U.T, X.T)]).reshape(shape)

    def form(self, U) -> np.ndarray:
        shape = np.shape(U)[1:]
        U = _columns(U, self.dim)
        entries = self.matrix.entries
        # Elementwise products make u = 1 give exactly entries.sum().
        return np.array([(entries * np.outer(u, u)).sum() for u in U.T]).reshape(shape)

    def restrict(self, idx) -> "Dense":
        return Dense(submatrix(self.matrix, idx))

    def spectrum(self) -> WeightSpectrum:
        eig = eigendecompose(self.matrix)
        values = eig.eigenvalues
        if values[0] <= 0.0 or values[-1] <= PSD_TOLERANCE * values[0]:
            raise NotPositiveDefinite("covariance matrix is not positive definite")
        column_sums = eig.eigenvectors.sum(axis=0)
        weights = column_sums * column_sums / self.dim
        return WeightSpectrum(sigmasq=values.copy(), weights=weights)


class Exponential:
    """a*I + c*exp(-|t_i - t_j|/eta) on increasing times, in O(n) per contraction.

    ``eta`` may be a 1-D grid: every contraction then returns one leading
    axis entry per eta, computed in the same pass.  eta = 0 is the white
    limit (rho = 0 exactly), as in covmodel.build.  Work arrays are laid out
    (eta, column, slot), so sums over the slots are pairwise.
    """

    def __init__(self, a: float, c: float, eta, times) -> None:
        self.a = float(a)
        self.c = float(c)
        self.eta = np.asarray(eta, dtype=float)
        self.times = np.asarray(times, dtype=float)
        if self.eta.ndim > 1 or not (np.isfinite(self.eta) & (self.eta >= 0.0)).all():
            raise InvalidSpec("eta must be a finite scalar or grid, all >= 0")
        if self.times.ndim != 1 or self.times.size == 0:
            raise DimensionMismatch("sample times must be a non-empty vector")
        gaps = np.diff(self.times)
        if not (gaps > 0.0).all():
            raise InvalidSpec("sample times must be strictly increasing")
        with np.errstate(divide="ignore"):
            lag = gaps / self.eta.reshape(-1, 1)
        # (len(eta), n-1) per-gap correlations and 1 - rho without cancellation.
        self._rho = np.exp(-lag)
        self._one_minus = -np.expm1(-lag)
        # Every Cholesky pivot^2 of C is at least a + c*(1 - rho_k^2), so this
        # accepts no matrix that the dense kernel's pivot test would reject
        # and, for a = 0, rejects exactly those it would.
        floor = self.a + self.c * (
            self._one_minus * (1.0 + self._rho)
        ).min(axis=1, initial=1.0)
        if (floor <= PSD_TOLERANCE * (self.a + self.c)).any():
            raise NotPositiveDefinite(
                "covariance has an effectively zero variance direction"
            )

    @property
    def dim(self) -> int:
        return self.times.size

    def _operand(self, U) -> tuple[np.ndarray, tuple]:
        """Columns of U as a (1, k, n) array, and the result shape to return.

        C order matters: it makes every product with U lay the slots out
        contiguously, which is what keeps the sums pairwise.
        """
        shape = self.eta.shape + np.shape(U)[1:]
        return np.ascontiguousarray(_columns(U, self.dim).T)[None], shape

    def _kinv_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """Row sums K^-1 1 (len(eta), 1, n) and off-diagonal magnitudes of K^-1.

        Each row sum is 1/2 per chain end plus (1 - rho)/(2(1 + rho)) per
        adjacent gap: all terms positive, so accurate as rho -> 1.
        """
        one_plus = 1.0 + self._rho
        half_gap = self._one_minus / (2.0 * one_plus)
        rowsum = np.zeros((self.eta.size, 1, self.dim))
        rowsum[..., :-1] += half_gap[:, None]
        rowsum[..., 1:] += half_gap[:, None]
        rowsum[..., 0] += 0.5
        rowsum[..., -1] += 0.5
        return rowsum, (self._rho / (self._one_minus * one_plus))[:, None]

    def quad(self, U) -> np.ndarray:
        """u'C^-1 u = (K^-1 u).z with z solving M z = u, M = a K^-1 + c I.

        Its terms share one sign for u = 1 and for alternating u.  Where they
        cancel (rough u, small c), a C^-1 = I - c M^-1 gives the same value
        as (u'u - c u.z)/a; each column takes the form with the smaller
        rounding bound.
        """
        U, shape = self._operand(U)
        rowsum, off = self._kinv_parts()
        # Row i of K^-1 u: rowsum_i u_i + off_{i-1}(u_i - u_{i-1}) + off_i(u_i - u_{i+1}).
        step = off * np.diff(U, axis=-1)
        terms = rowsum * U
        terms[..., 1:] += step
        terms[..., :-1] -= step
        del step
        z = self._solve_shifted(self.a * rowsum + self.c, self.a * off, U)
        terms *= z
        value = terms.sum(axis=-1)
        if self.a > 0.0:
            np.abs(terms, out=terms)
            bound = self.a * terms.sum(axis=-1)
            z *= U
            uu = (U * U).sum(axis=-1)
            uz = z.sum(axis=-1)
            np.abs(z, out=z)
            rough = uu + self.c * z.sum(axis=-1) < bound
            value = np.where(rough, (uu - self.c * uz) / self.a, value)
        return value.reshape(shape)

    def _solve_shifted(self, rowsum, off, U) -> np.ndarray:
        """Solve the tridiagonal M-matrix a K^-1 + c I for each column of U.

        Elimination carries the row sums of the trailing Schur complement:
        pivot_i = carry_i + off_i with carry_i = rowsum_i +
        off_{i-1} carry_{i-1} / pivot_{i-1}, a sum of positive terms, where
        the textbook d_i - e_i^2/pivot_{i-1} cancels as rho -> 1.
        """
        n = self.dim
        pivot = np.empty_like(rowsum)
        y = np.empty(np.broadcast_shapes(rowsum.shape, U.shape))
        y[..., 0] = U[..., 0]
        carry = rowsum[..., 0]
        for i in range(1, n):
            pivot[..., i - 1] = carry + off[..., i - 1]
            ratio = off[..., i - 1] / pivot[..., i - 1]
            carry = rowsum[..., i] + ratio * carry
            y[..., i] = U[..., i] + ratio * y[..., i - 1]
        pivot[..., n - 1] = carry
        y[..., n - 1] /= pivot[..., n - 1]
        for i in range(n - 2, -1, -1):
            y[..., i] = (y[..., i] + off[..., i] * y[..., i + 1]) / pivot[..., i]
        return y

    def form(self, U) -> np.ndarray:
        """u'C u = a u'u + c u'K u, with K u from the AR(1) recursions both ways."""
        U, shape = self._operand(U)
        rho = self._rho[:, None]
        ku = np.empty(np.broadcast_shapes(rho.shape[:-1] + (1,), U.shape))
        behind = np.empty_like(ku)
        ku[..., 0] = U[..., 0]
        behind[..., -1] = U[..., -1]
        for i in range(1, self.dim):
            ku[..., i] = U[..., i] + rho[..., i - 1] * ku[..., i - 1]
            j = self.dim - 1 - i
            behind[..., j] = U[..., j] + rho[..., j] * behind[..., j + 1]
        ku += behind
        del behind
        ku -= U
        ku *= U
        value = self.a * (U * U).sum(axis=-1) + self.c * ku.sum(axis=-1)
        return value.reshape(shape)

    def restrict(self, idx) -> "Exponential":
        """The retained slots idx (strictly increasing): again an OU chain."""
        return Exponential(self.a, self.c, self.eta, self.times[subset_index(idx, self.dim)])

    def spectrum(self) -> WeightSpectrum:
        """Eigenpairs of C from the tridiagonal K^-1, O(n^2) for the vectors.

        Eigenvectors come from eigh_tridiagonal; each eigenvalue of K^-1 is
        then recomputed as the Rayleigh quotient in bidiagonal form,
        v_0^2 + sum_j ((v_j - v_{j-1}) + (1 - rho_j) v_{j-1})^2 / (1 - rho_j^2),
        which is free of cancellation and second order in the vector error,
        where the eigenvalues eigh_tridiagonal returns lose digits as rho -> 1.
        """
        if self.eta.ndim:
            raise InvalidSpec("spectrum needs a single eta, not a grid")
        rho = self._rho[0]
        one_minus = self._one_minus[0]
        one_minus_sq = one_minus * (1.0 + rho)
        diag = np.zeros(self.dim)
        diag[0] = 1.0
        diag[1:] += 1.0 / one_minus_sq
        diag[:-1] += rho * rho / one_minus_sq
        _, vectors = eigh_tridiagonal(diag, -rho / one_minus_sq)
        steps = np.diff(vectors, axis=0)
        steps += one_minus[:, None] * vectors[:-1]
        np.square(steps, out=steps)
        steps /= one_minus_sq[:, None]
        kinv_values = vectors[0] ** 2 + steps.sum(axis=0)
        column_sums = vectors.sum(axis=0)
        return WeightSpectrum(
            sigmasq=self.a + self.c / kinv_values,
            weights=column_sums * column_sums / self.dim,
        )


def make_covariance(spec: CovSpec) -> Dense | Exponential:
    """Operator for ``spec``: structured for the exponential kind, else dense."""
    if spec.kind == KIND_EXPONENTIAL:
        return Exponential(spec.a, spec.c, spec.eta, np.arange(spec.n))
    return Dense(build(spec))
