"""Covariance models and the operator that contracts them.

The three noise models are white noise of variance ``a`` plus an
Ornstein-Uhlenbeck (AR(1)) chain of variance ``c`` on increasing times t,
C = a*I + c*K with K_ij = exp(-|t_i - t_j| / eta):

* ``solvable``     eta = inf, C_ij = a*delta_ij + c   (a common random offset)
* ``exponential``  a finite eta, C_ij = a*delta_ij + c*exp(-|i-j|/eta)
* ``white``        eta = 0, C_ij = (a + c)*delta_ij

``eta = tau/dt`` is the correlation time in units of the sampling interval;
only the ratio matters.  ``check_model`` is the model's domain rule, the one
place that decides which (kind, a, c, n) give a covariance that is
nonsingular by construction; CovSpec and every closed form apply it.
``make_covariance`` maps a CovSpec to its ``Chain``, the one operator for
all three models.  Every Fisher information, plain-average variance,
estimator weight and Monte Carlo loading in estlab is one of its

* ``quad(U)``      u'C^-1 u for each column u of U,
* ``solve(U)``     C^-1 U,
* ``form(U)``      u'C u for each column,
* ``loading(U)``   G'U for the Cholesky factor G of C (C = G G'),
* ``restrict(idx)``  the covariance of the retained slots idx (the rule
                     ``subset_index``); given a list of index sets, one
                     chain with one segment per set,
* ``spectrum()``   eigenvalues of C with the flat-vector weights, for every
                   model: closed form at eta = 0 and eta = inf; at a finite
                   eta the times must be equally spaced, and two half-size
                   tridiagonal eigenproblems, the symmetric and the
                   antisymmetric modes, solved one after the other, peak
                   near n^2/2 doubles.

A retained subset of a chain is again a chain, with per-gap correlations
phi_k = exp(-dt_k/eta).  A chain may be cut into segments, with phi = 0
across each segment start at every eta, inf included: C is then block
diagonal, and ``quad`` and ``form`` return one value per segment, each
bit for bit that of the segment's own chain.  C is diagonal plus
semiseparable, so its Cholesky factor costs O(n) to build and to apply
(the one-term celerite factorization, Foreman-Mackey et al. 2017), every
contraction reads C only through that factor, and no operation builds an
n x n array.  The dense oracle in tests/conftest.py (Cholesky and eigh on
a materialized matrix) is the reference the tests hold this operator to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dtbtrs

from .errors import InvalidSpec, InvalidSpectrum, NotPositiveDefinite

KIND_SOLVABLE = "solvable"
KIND_EXPONENTIAL = "exponential"
KIND_WHITE = "white"

KINDS = (KIND_SOLVABLE, KIND_EXPONENTIAL, KIND_WHITE)


def check_model(kind: str, a: float, c: float, n: int) -> None:
    """Raise InvalidSpec unless a*I + c*K of this kind is nonsingular by construction.

    n is a positive integer, a finite and >= 0 and c finite.  The solvable
    model, with eigenvalues a + n*c and a, needs a > 0 and c > -a/n; the
    white and exponential models need c >= 0 and not a = c = 0.
    """
    if kind not in KINDS:
        raise InvalidSpec(f"unknown covariance kind {kind!r}")
    # Comparisons with nan are false, so a nan n, a or c fails these tests.
    if not (n >= 1 and n % 1 == 0):
        raise InvalidSpec(f"n must be a positive integer, got {n!r}")
    if not (0.0 <= a < math.inf and -math.inf < c < math.inf):
        raise InvalidSpec(f"a must be finite and >= 0 and c finite, got a={a!r}, c={c!r}")
    if kind == KIND_SOLVABLE:
        if not (a > 0.0 and c > -a / n):
            raise InvalidSpec(
                f"the solvable model needs a > 0 and c > -a/n, got a={a!r}, c={c!r}, n={n}"
            )
    elif c < 0.0 or a == c == 0.0:
        raise InvalidSpec(f"the {kind} model needs c >= 0 and not a = c = 0, "
                          f"got a={a!r}, c={c!r}")


@dataclass(frozen=True)
class CovSpec:
    """Declarative covariance model: kind plus parameters (a, c, eta, n)."""

    kind: str
    a: float
    c: float
    n: int
    eta: float | None = None

    def __post_init__(self) -> None:
        check_model(self.kind, self.a, self.c, self.n)
        if self.kind != KIND_EXPONENTIAL:
            if self.eta is not None:
                raise InvalidSpec("eta applies to the exponential kind only")
        elif self.eta is None or not np.isfinite(self.eta) or self.eta < 0.0:
            raise InvalidSpec(
                f"exponential model requires a finite eta >= 0, got {self.eta}"
            )


@dataclass(frozen=True)
class WeightSpectrum:
    """Eigenvalues sigma^2_k with weights w_k = (sum_i O_ik)^2 / N.

    The weights sum to one because the eigenvector matrix is orthogonal;
    they say how much of the flat (signal) direction lives in each
    eigenmode of the noise.
    """

    sigmasq: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        sig = np.asarray(self.sigmasq, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if sig.ndim != 1 or w.shape != sig.shape:
            raise InvalidSpectrum("sigmasq and weights must be equal-length vectors")
        if (sig <= 0.0).any():
            raise InvalidSpectrum("all eigenvalues must be strictly positive")
        if (w < -1e-12).any():
            raise InvalidSpectrum("weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-10:
            raise InvalidSpectrum(f"weights sum to {w.sum()!r}, expected 1")
        sig.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "sigmasq", sig)
        object.__setattr__(self, "weights", w)


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

    @property
    def segments(self) -> tuple[slice, ...] | None: ...

    def spectrum(self) -> WeightSpectrum: ...


def _columns(U, dim: int) -> np.ndarray:
    """U as a (dim, k) array; a vector is one column."""
    U = np.asarray(U, dtype=float)
    if U.ndim not in (1, 2) or U.shape[0] != dim:
        raise InvalidSpec(
            f"expected a vector or columns of length {dim}, got shape {U.shape}"
        )
    return U.reshape(dim, -1)


def _e_terms(a: float, c: float, fresh: list, kept: list, tail: int) -> list:
    """E_0 .. E_{n-1} of one chain (see Chain); fresh = 1 - phi^2, kept = a phi^2.

    The recurrence is nonlinear, so it runs as a scalar loop, over Python
    floats: a step costs far less than one over numpy rows of a few etas.
    From step ``tail`` on fresh and kept are constant, so each step applies
    the same map to E: once a step returns its input, every later E is that
    same float, and the loop stops there.
    """
    e = 1.0
    terms = [e]
    for f, k in zip(fresh[:tail], kept[:tail]):
        e = f + k * (e / (a + c * e))
        terms.append(e)
    if tail < len(fresh):
        f, k = fresh[tail], kept[tail]
        for _ in range(tail, len(fresh)):
            e, last = f + k * (e / (a + c * e)), e
            if e == last:
                break
            terms.append(e)
        terms += [e] * (len(fresh) + 1 - len(terms))
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


def subset_index(retained, dim: int) -> np.ndarray:
    """Validated retained slots: a non-empty, strictly increasing index vector."""
    idx = np.asarray(retained, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise InvalidSpec("retained index set must be a non-empty vector")
    if (np.diff(idx) <= 0).any():
        raise InvalidSpec("retained indices must be strictly increasing")
    if idx[0] < 0 or idx[-1] >= dim:
        raise InvalidSpec(f"retained indices must lie in [0, {dim - 1}]")
    return idx


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

    ``starts``, the first slot of each segment (0 first, then increasing),
    cuts the chain into independent segments: phi_i = 0 at every start, so
    D and L restart there, and the times need only increase within a
    segment.  ``quad`` and ``form`` then sum each segment's slice by itself,
    a new axis after eta, and ``segments`` holds those slices (None for an
    unsegmented chain).
    """

    def __init__(self, a: float, c: float, eta, times, starts=None) -> None:
        self.a = float(a)
        self.c = float(c)
        self.eta = np.asarray(eta, dtype=float)
        self.times = np.asarray(times, dtype=float)
        if self.eta.ndim > 1 or not (self.eta >= 0.0).all():
            raise InvalidSpec("eta must be a scalar or grid, all >= 0 (inf allowed)")
        if self.times.ndim != 1 or self.times.size == 0:
            raise InvalidSpec("sample times must be a non-empty vector")
        self._starts = np.asarray([0] if starts is None else starts, dtype=np.intp)
        bounds = np.append(self._starts, self.dim).tolist()
        if self._starts.ndim != 1 or bounds[0] != 0 or not (np.diff(bounds) > 0).all():
            raise InvalidSpec("segment starts must be 0 and then increasing slots of the chain")
        self.segments = None if starts is None else tuple(map(slice, bounds[:-1], bounds[1:]))
        cuts = self._starts[1:] - 1  # the gaps across a segment start
        gaps = np.diff(self.times)
        gaps[cuts] = 1.0  # time may step back at a cut, whose phi is set to 0 below
        if not (gaps > 0.0).all():
            raise InvalidSpec("sample times must be strictly increasing")
        # (len(eta), n-1): lag 0 at eta = inf, inf at eta = 0 or subnormal and across a cut.
        with np.errstate(divide="ignore", over="ignore"):
            lag = gaps / self.eta.reshape(-1, 1)
        lag[:, cuts] = np.inf
        # Per eta, the first gap from which every lag is the same: 0 when equally spaced.
        same = lag[:, 1:] == lag[:, :-1]
        tails = same.shape[1] - np.cumprod(same[:, ::-1], axis=1).sum(axis=1)
        phi = np.exp(-lag)
        one_minus = -np.expm1(-lag)
        fresh = -np.expm1(-2.0 * lag)
        del lag, same
        kept = phi * phi
        kept *= self.a
        e = np.empty((self.eta.size, self.dim))
        for g in range(self.eta.size):
            try:
                e[g] = _e_terms(self.a, self.c, fresh[g].tolist(), kept[g].tolist(), tails[g])
            except ZeroDivisionError:
                e[g] = np.inf  # a zero pivot, which the check below rejects
        del fresh, kept
        cw = e
        # E is non-finite after a zero pivot, or once it overflows for a subnormal a.
        if np.isfinite(cw).all():
            cw *= self.c
        pivot = cw + self.a
        if not ((pivot > PSD_TOLERANCE * (self.a + self.c)) & (pivot < np.inf)).all():
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

    def _out(self, values: np.ndarray, U) -> np.ndarray:
        """(eta, column, slot) values as eta.shape + U.shape."""
        return np.moveaxis(values, -1, 1).reshape(self.eta.shape + np.shape(U))

    def _forward(self, U: np.ndarray) -> np.ndarray:
        """y = L^-1 U = B^-1 (A U).

        (A u)_i is taken as (u_i - u_{i-1}) + (1 - phi_i) u_{i-1}, so for
        u = 1 every term of y is non-negative and nothing cancels as phi -> 1.
        """
        y = np.empty((self.eta.size,) + U.shape[1:])
        np.multiply(self._one_minus, U[..., :-1], out=y[..., 1:])
        y[..., 1:] += np.diff(U, axis=-1)
        y[..., self._starts] = U[..., self._starts]  # exactly u where a segment starts
        return _bidiagonal_solve(self._gain, y)

    def _sums(self, terms: np.ndarray, U) -> np.ndarray:
        """Slot sums of (eta, column, slot) terms as eta.shape [+ segments] + U's columns."""
        columns = np.shape(U)[1:]
        if self.segments is None:
            return terms.sum(axis=-1).reshape(self.eta.shape + columns)
        sums = np.stack([terms[..., s].sum(axis=-1) for s in self.segments], axis=1)
        return sums.reshape(self.eta.shape + (len(self.segments),) + columns)

    def quad(self, U) -> np.ndarray:
        """u'C^-1 u = sum_i y_i^2 / D_i with y = L^-1 u: positive terms only."""
        y = self._forward(self._operand(U))
        y *= y
        y /= self._pivot
        return self._sums(y, U)

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

    def _lt(self, U: np.ndarray) -> np.ndarray:
        """L'U = B' (A'^-1 U) as a fresh (eta, column, slot) array.

        With p = A'^-1 u, (L'u)_i = u_i + c W_i phi_{i+1} p_{i+1}:
        non-negative terms for u >= 0.
        """
        v = _bidiagonal_solve(self._phi, np.repeat(U, self.eta.size, axis=0), transpose=True)
        # v is p here, and p_{n-1} = u_{n-1} is already (L'u)_{n-1}.
        v[..., :-1] = self._phi * v[..., 1:]
        v[..., :-1] *= self._cw[..., :-1]
        v[..., :-1] += U[..., :-1]
        return v

    def loading(self, U) -> np.ndarray:
        """G'U with G = L diag(sqrt(D)), the Cholesky factor of C (C = G G')."""
        v = self._lt(self._operand(U))
        v *= np.sqrt(self._pivot)
        return self._out(v, U)

    def form(self, U) -> np.ndarray:
        """u'C u = sum_i D_i v_i^2 with v = L'u: positive terms only."""
        v = self._lt(self._operand(U))
        v *= v
        v *= self._pivot
        return self._sums(v, U)

    def restrict(self, idx) -> "Chain":
        """The retained slots idx (strictly increasing): again a chain.

        A list or tuple of index sets gives one chain with one segment per
        set, in order, even for one set; the sets may share slots.
        """
        if not (isinstance(idx, (list, tuple)) and idx and np.ndim(idx[0]) == 1):
            return Chain(self.a, self.c, self.eta, self.times[subset_index(idx, self.dim)])
        sets = [subset_index(s, self.dim) for s in idx]
        starts = np.cumsum([0] + [s.size for s in sets[:-1]])
        return Chain(self.a, self.c, self.eta, self.times[np.concatenate(sets)], starts)

    def spectrum(self) -> WeightSpectrum:
        """Eigenvalues of C with the weights of the flat vector in each mode.

        At eta = 0 (K = I) every eigenvalue is a + c, and at eta = inf (K
        all ones) the flat mode has n*c + a and carries all the weight, the
        others a.  A finite eta needs equally spaced times, where K^-1 is
        tridiagonal and persymmetric (Cantoni & Butler 1976): each
        eigenvector is symmetric, v = (x, [x_m,] Jx) with J the reversal, or
        antisymmetric, v = (x, [0,] -Jx), and 1'v = 0 exactly for the
        latter.  So eigh_tridiagonal solves two half-size blocks built from
        the first half of K^-1, one after the other, and the peak is one
        block's eigenvectors and LAPACK's workspace, about n^2/2 doubles.
        With m = n // 2, for even n they are the m x m leading block with
        the last diagonal entry plus (symmetric) or minus (antisymmetric)
        the middle off-diagonal; for odd n the (m + 1) x (m + 1) leading
        block with its coupling to the middle slot scaled by sqrt(2)
        (symmetric), and the m x m one (antisymmetric).  Each eigenvalue of
        K^-1 is then recomputed, on its vector rebuilt to length n 64
        columns at a time, as the Rayleigh quotient in bidiagonal form,
        v_0^2 + sum_j ((v_j - v_{j-1}) + (1 - rho) v_{j-1})^2 / (1 - rho^2),
        which is free of cancellation and second order in the vector error,
        where the eigenvalues eigh_tridiagonal returns lose digits as rho -> 1.
        The antisymmetric modes carry weight exactly 0.
        """
        if self.eta.ndim or self.segments is not None:
            raise InvalidSpec("spectrum needs a single eta and an unsegmented chain")
        if self.eta == 0.0 or np.isinf(self.eta):
            sigmasq = np.full(self.dim, self.a + self.c if self.eta == 0.0 else self.a)
            if np.isinf(self.eta):
                sigmasq[0] = self.dim * self.c + self.a
            weights = np.zeros(self.dim)
            weights[0] = 1.0
            return WeightSpectrum(sigmasq=sigmasq, weights=weights)
        gaps = np.diff(self.times)
        if (gaps != gaps[:1]).any():
            raise InvalidSpec("spectrum at a finite eta needs equally spaced sample times")
        n, m = self.dim, self.dim // 2
        rho, one_minus = (self._phi[0, 0, 0], self._one_minus[0, 0, 0]) if n > 1 else (0.0, 1.0)
        one_minus_sq = one_minus * (1.0 + rho)
        diag = np.zeros(n - m)  # the first half of K^-1's diagonal
        diag[0] = 1.0
        diag[1:] += 1.0 / one_minus_sq
        diag += rho * rho / one_minus_sq
        off = -rho / one_minus_sq
        sym_off = np.full(diag.size - 1, off)
        anti = diag[:m].copy()
        if n % 2:
            sym_off[m - 1:] *= math.sqrt(2.0)  # the coupling to the middle slot; none at n = 1
        else:
            diag[-1] += off
            anti[-1] -= off
        blocks = [(diag, sym_off, 1.0)]
        if m:  # n = 1 has no antisymmetric mode
            blocks.append((anti, np.full(m - 1, off), -1.0))
        kinv, weights = [], []
        for d, e, sign in blocks:
            x = eigh_tridiagonal(d, e)[1]
            for k in range(0, d.size, 64):  # 64 vectors at a time, rebuilt to length n
                u = np.empty((n, min(64, d.size - k)))  # sqrt(2) times each eigenvector
                u[:m] = x[:m, k:k + 64]
                np.multiply(u[:m][::-1], sign, out=u[n - m:])
                if n % 2:
                    u[m] = math.sqrt(2.0) * x[m, k:k + 64] if sign > 0.0 else 0.0
                steps = np.diff(u, axis=0)
                steps += one_minus * u[:-1]
                np.square(steps, out=steps)
                steps /= one_minus_sq
                kinv.append(0.5 * (u[0] ** 2 + steps.sum(axis=0)))
                sums = u.sum(axis=0)
                weights.append(sums * sums / (2 * n) if sign > 0.0 else np.zeros(u.shape[1]))
            del x  # freed before the next block's solve
        return WeightSpectrum(
            sigmasq=self.a + self.c / np.concatenate(kinv),
            weights=np.concatenate(weights),
        )


def make_covariance(spec: CovSpec) -> Chain:
    """The chain of ``spec``: eta = inf for solvable, 0 for white."""
    eta = {KIND_SOLVABLE: np.inf, KIND_WHITE: 0.0}.get(spec.kind, spec.eta)
    return Chain(spec.a, spec.c, eta, np.arange(spec.n))
