"""Dense symmetric-matrix kernel: validated storage, Cholesky, eigensystems.

The dense reference that the O(n) covariance.Chain is tested against; no
estlab module imports it.  The tests' dense oracle factors, solves and
diagonalizes with these primitives, and the benchmark tracer wraps
SymMatrix.  The contracts are deliberately strict: matrices are validated
and frozen at construction, and factorization rejects zero-variance
directions (squared pivots at or below PSD_TOLERANCE of the largest
diagonal entry, the test Chain applies to its pivots) instead of jittering
them away.  Storage is dense; the intended working range is dim <= 4096.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import PSD_TOLERANCE
from .errors import ConvergenceFailure, DimensionMismatch, NotPositiveDefinite


class SymMatrix:
    """Immutable dense symmetric matrix.

    Input is validated to be square with symmetric entries (up to 1e-8
    relative skew, which is then symmetrized exactly); the stored array is
    read-only so instances are safe to share across threads.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionMismatch("matrix dimension must be at least 1")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        scale = np.abs(a).max()
        if scale > 0.0 and np.abs(a - a.T).max() > 1e-8 * scale:
            raise ValueError("matrix is not symmetric")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        self._entries = a

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Read-only (dim, dim) array of matrix entries."""
        return self._entries

    @classmethod
    def identity(cls, dim: int) -> "SymMatrix":
        return cls(np.eye(dim))

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in descending order with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)


def factor_spd(matrix: SymMatrix) -> np.ndarray:
    """Cholesky factor L (lower triangular) with L @ L.T == matrix.

    Raises NotPositiveDefinite when a pivot is non-positive or its square
    falls at or below PSD_TOLERANCE relative to the largest diagonal entry,
    i.e. the matrix has an (effectively) zero-variance direction.
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
        raise NotPositiveDefinite(
            "matrix has an effectively zero variance direction"
        )
    return lower


def eigendecompose(matrix: SymMatrix) -> EigenSystem:
    """Full symmetric eigendecomposition, eigenvalues sorted descending."""
    try:
        values, vectors = np.linalg.eigh(matrix.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure("symmetric eigensolver failed to converge") from exc
    return EigenSystem(
        eigenvalues=values[::-1].copy(),
        eigenvectors=vectors[:, ::-1].copy(),
    )
