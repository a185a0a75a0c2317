"""Covariance operators: the contractions the strategy code needs.

Every Fisher information, plain-average variance, estimator weight and Monte
Carlo loading in estlab is one of

* ``quad(U)``      u'C^-1 u for each column u of U,
* ``solve(U)``     C^-1 U,
* ``form(U)``      u'C u for each column,
* ``loading(U)``   G'U for the Cholesky factor G of C (C = G G'),
* ``restrict(idx)``  the covariance of a retained subset of the slots,
* ``spectrum()``   eigenvalues of C with the flat-vector weights, for every
                   model: closed form at eta = 0 and eta = inf.

All three noise models are white noise plus an Ornstein-Uhlenbeck (AR(1))
chain on increasing sample times t,

    C = a*I + c*K,   K_ij = exp(-|t_i - t_j| / eta),

so one operator, ``Chain``, serves them all: eta = inf is the solvable model
(K is all ones), eta = 0 is white noise (K = I) and a finite eta is the
exponential model.  A retained subset of a chain is again a chain, with
per-gap correlations phi_k = exp(-dt_k/eta).  C is diagonal plus
semiseparable, so its Cholesky factor costs O(n) to build and to apply (the
one-term celerite factorization, Foreman-Mackey et al. 2017), and no
operation builds an n x n array.  ``make_covariance`` maps a CovSpec to its
chain.  The dense oracle in tests/conftest.py (Cholesky and eigh on a
materialized matrix) is the reference the tests hold this operator to.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dtbtrs

from .covmodel import KIND_EXPONENTIAL, KIND_SOLVABLE, CovSpec, WeightSpectrum
from .errors import InvalidSpec, NotPositiveDefinite
from .partition import subset_index

# Eigenvalues (and squared Cholesky pivots) at or below this fraction of the
# largest one are treated as exactly zero: a deterministic, infinitely
# informative direction that the estimation theory excludes.
PSD_TOLERANCE = 1e-10


class Covariance(Protocol):
    """What strategy code may ask of a covariance; see the module docstring."""

    @property
    def dim(self) -> int: ...

    def quad(self, U) -> np.ndarray: ...

    def solve(self, U) -> np.ndarray: ...

    def form(self, U) -> np.ndarray: ...

    def loading(self, U) -> np.ndarray: ...

    def restrict(self, idx) -> "Covariance": ...

    def spectrum(self) -> WeightSpectrum: ...


def _columns(U, dim: int) -> np.ndarray:
    """U as a (dim, k) array; a vector is one column."""
    U = np.asarray(U, dtype=float)
    if U.ndim not in (1, 2) or U.shape[0] != dim:
        raise InvalidSpec(
            f"expected a vector or columns of length {dim}, got shape {U.shape}"
        )
    return U.reshape(dim, -1)


def _e_terms(a: float, c: float, fresh: list, kept: list) -> list:
    """E_0 .. E_{n-1} of one chain (see Chain); fresh = 1 - phi^2, kept = a phi^2.

    The recurrence is nonlinear, so it runs as a scalar loop, over Python
    floats: a step costs far less than one over numpy rows of a few etas.
    """
    e = 1.0
    terms = [e]
    for f, k in zip(fresh, kept):
        e = f + k * (e / (a + c * e))
        terms.append(e)
    return terms


def _bidiagonal_solve(sub: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Overwrite b with T^-1 b, or T'^-1 b, one eta at a time.

    T is unit lower bidiagonal with subdiagonal -sub; sub is (eta, 1, n-1)
    and b is (eta, column, n), so each b[g].T is the Fortran-ordered
    right-hand side LAPACK's banded triangular solve works on in place.
    """
    band = np.zeros((2, b.shape[-1]))
    band[0] = 1.0
    trans = "T" if transpose else "N"
    for sub_g, b_g in zip(sub[:, 0], b):
        np.negative(sub_g, out=band[1, :-1])
        x, _ = dtbtrs(band, b_g.T, uplo="L", trans=trans, diag="U", overwrite_b=1)
        b_g[...] = x.T
    return b


class Chain:
    """a*I + c*K on increasing times, factored once as L diag(D) L' in O(n).

    With phi_i the correlation across the gap before slot i,

        E_0 = 1,   E_i = (1 - phi_i^2) + phi_i^2 a W_{i-1},
        D_i = a + c E_i,   W_i = E_i / D_i,
        L_ij = c W_j phi_{j+1} ... phi_i  for i > j,  L_ii = 1.

    Both terms of E_i are non-negative while the D_i stay positive, so
    nothing cancels as phi -> 1, and 1 - phi^2 is taken as -expm1(-2 dt/eta).
    The D_i are the squared Cholesky pivots of C, so C is rejected as a
    dense Cholesky with the same test would: when a D_i falls to
    PSD_TOLERANCE (a + c).

    L^-1 = B^-1 A with A and B unit lower bidiagonal, subdiagonals -phi_i
    and -gain_i = -phi_i a / D_{i-1} (since 1 - c W = a / D), so every
    operation is a few bidiagonal solves and elementwise products.

    ``eta`` may be a 1-D grid: every contraction then returns one leading
    axis entry per eta.  Work arrays are laid out (eta, column, slot), so
    sums over the slots are contiguous and pairwise.
    """

    def __init__(self, a: float, c: float, eta, times) -> None:
        self.a = float(a)
        self.c = float(c)
        self.eta = np.asarray(eta, dtype=float)
        self.times = np.asarray(times, dtype=float)
        if self.eta.ndim > 1 or not (self.eta >= 0.0).all():
            raise InvalidSpec("eta must be a scalar or grid, all >= 0 (inf allowed)")
        if self.times.ndim != 1 or self.times.size == 0:
            raise InvalidSpec("sample times must be a non-empty vector")
        gaps = np.diff(self.times)
        if not (gaps > 0.0).all():
            raise InvalidSpec("sample times must be strictly increasing")
        # (len(eta), n-1): lag 0 at eta = inf, inf at eta = 0.
        with np.errstate(divide="ignore"):
            lag = gaps / self.eta.reshape(-1, 1)
        phi = np.exp(-lag)
        one_minus = -np.expm1(-lag)
        fresh = -np.expm1(-2.0 * lag)
        del lag
        kept = phi * phi
        kept *= self.a
        e = np.empty((self.eta.size, self.dim))
        for g in range(self.eta.size):
            try:
                e[g] = _e_terms(self.a, self.c, fresh[g].tolist(), kept[g].tolist())
            except ZeroDivisionError:
                e[g] = np.nan  # a zero pivot, which the check below rejects
        del fresh, kept
        cw = e
        cw *= self.c
        pivot = cw + self.a
        if not (pivot > PSD_TOLERANCE * (self.a + self.c)).all():
            raise NotPositiveDefinite(
                "covariance has an effectively zero variance direction"
            )
        cw /= pivot
        gain = self.a * phi
        gain /= pivot[:, :-1]
        self._phi = phi[:, None]
        self._one_minus = one_minus[:, None]
        self._gain = gain[:, None]
        self._pivot = pivot[:, None]
        self._cw = cw[:, None]

    @property
    def dim(self) -> int:
        return self.times.size

    def _operand(self, U) -> np.ndarray:
        """Columns of U as a (1, column, slot) array."""
        return np.ascontiguousarray(_columns(U, self.dim).T)[None]

    def _work(self, U: np.ndarray) -> np.ndarray:
        """A fresh (eta, column, slot) copy of the operand."""
        work = np.empty((self.eta.size,) + U.shape[1:])
        work[...] = U
        return work

    def _out(self, values: np.ndarray, U) -> np.ndarray:
        """(eta, column, slot) values as eta.shape + U.shape."""
        return np.moveaxis(values, -1, 1).reshape(self.eta.shape + np.shape(U))

    def _forward(self, U: np.ndarray) -> np.ndarray:
        """y = L^-1 U = B^-1 (A U).

        (A u)_i is taken as (u_i - u_{i-1}) + (1 - phi_i) u_{i-1}, so for
        u = 1 every term of y is non-negative and nothing cancels as phi -> 1.
        """
        y = np.empty((self.eta.size,) + U.shape[1:])
        y[..., 0] = U[..., 0]
        np.multiply(self._one_minus, U[..., :-1], out=y[..., 1:])
        y[..., 1:] += np.diff(U, axis=-1)
        return _bidiagonal_solve(self._gain, y)

    def quad(self, U) -> np.ndarray:
        """u'C^-1 u = sum_i y_i^2 / D_i with y = L^-1 u: positive terms only."""
        shape = self.eta.shape + np.shape(U)[1:]
        y = self._forward(self._operand(U))
        y *= y
        y /= self._pivot
        return y.sum(axis=-1).reshape(shape)

    def solve(self, U) -> np.ndarray:
        """C^-1 U = A' B'^-1 z with z = D^-1 L^-1 U.

        With v = B'^-1 z, (A'v)_i = v_i - phi_{i+1} v_{i+1} is evaluated as
        z_i - c W_i phi_{i+1} v_{i+1}.
        """
        z = self._forward(self._operand(U))
        z /= self._pivot
        v = _bidiagonal_solve(self._gain, z.copy(), transpose=True)[..., 1:]
        v *= self._phi
        v *= self._cw[..., :-1]
        z[..., :-1] -= v
        return self._out(z, U)

    def loading(self, U) -> np.ndarray:
        """G'U with G = L diag(sqrt(D)), the Cholesky factor of C (C = G G').

        L' = B' A'^-1, so with p = A'^-1 u, (L'u)_i = u_i + c W_i phi_{i+1} p_{i+1}:
        non-negative terms for u >= 0.
        """
        U3 = self._operand(U)
        v = _bidiagonal_solve(self._phi, self._work(U3), transpose=True)
        # v is p here, and p_{n-1} = u_{n-1} is already (L'u)_{n-1}.
        v[..., :-1] = self._phi * v[..., 1:]
        v[..., :-1] *= self._cw[..., :-1]
        v[..., :-1] += U3[..., :-1]
        v *= np.sqrt(self._pivot)
        return self._out(v, U)

    def form(self, U) -> np.ndarray:
        """u'C u = a u'u + c u'K u, with K u = A^-1 u + A'^-1 u - u (AR(1) both ways)."""
        shape = self.eta.shape + np.shape(U)[1:]
        U = self._operand(U)
        ku = _bidiagonal_solve(self._phi, self._work(U))
        ku += _bidiagonal_solve(self._phi, self._work(U), transpose=True)
        ku -= U
        ku *= U
        value = self.a * (U * U).sum(axis=-1) + self.c * ku.sum(axis=-1)
        return value.reshape(shape)

    def restrict(self, idx) -> "Chain":
        """The retained slots idx (strictly increasing): again a chain."""
        return Chain(self.a, self.c, self.eta, self.times[subset_index(idx, self.dim)])

    def spectrum(self) -> WeightSpectrum:
        """Eigenvalues of C with the weights of the flat vector in each mode.

        At eta = 0 (K = I) every eigenvalue is a + c, and at eta = inf (K
        all ones) the flat mode has n*c + a and carries all the weight, the
        others a.  A finite eta takes the eigenvectors of the tridiagonal
        K^-1 from eigh_tridiagonal, O(n^2); each eigenvalue of K^-1 is then
        recomputed as the Rayleigh quotient in bidiagonal form,
        v_0^2 + sum_j ((v_j - v_{j-1}) + (1 - rho_j) v_{j-1})^2 / (1 - rho_j^2),
        which is free of cancellation and second order in the vector error,
        where the eigenvalues eigh_tridiagonal returns lose digits as rho -> 1.
        """
        if self.eta.ndim:
            raise InvalidSpec("spectrum needs a single eta, not a grid")
        if self.eta == 0.0 or np.isinf(self.eta):
            sigmasq = np.full(self.dim, self.a + self.c if self.eta == 0.0 else self.a)
            if np.isinf(self.eta):
                sigmasq[0] = self.dim * self.c + self.a
            weights = np.zeros(self.dim)
            weights[0] = 1.0
            return WeightSpectrum(sigmasq=sigmasq, weights=weights)
        with np.errstate(divide="ignore"):
            lag = np.diff(self.times) / self.eta
        rho = np.exp(-lag)
        one_minus = -np.expm1(-lag)
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


def make_covariance(spec: CovSpec) -> Chain:
    """The chain of ``spec``: eta = inf for solvable, 0 for white."""
    if spec.kind == KIND_EXPONENTIAL:
        eta = spec.eta
    else:
        eta = np.inf if spec.kind == KIND_SOLVABLE else 0.0
    return Chain(spec.a, spec.c, eta, np.arange(spec.n))
