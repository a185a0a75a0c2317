"""Validated, immutable dense symmetric matrices.

The storage of the tests' dense oracle (tests/conftest.py), which holds the
O(n) ``estlab.covariance.Chain`` to materialized n x n covariances.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSpec


# No estlab module builds one; perfbench/tracing.py imports it by name.
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
            raise InvalidSpec(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise InvalidSpec("matrix dimension must be at least 1")
        if not np.isfinite(a).all():
            raise InvalidSpec("matrix entries must be finite")
        scale = np.abs(a).max()
        if scale > 0.0 and np.abs(a - a.T).max() > 1e-8 * scale:
            raise InvalidSpec("matrix is not symmetric")
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

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"
