"""Covariance models and their closed-form spectral data.

Three noise models are supported, all with per-sample white variance ``a``
and correlated variance ``c``:

* ``solvable``     C_ij = a*delta_ij + c          (a common random offset)
* ``exponential``  C_ij = a*delta_ij + c*exp(-|i-j|/eta)
* ``white``        C_ij = (a + c)*delta_ij

``eta = tau/dt`` is the correlation time in units of the sampling interval;
only the ratio matters, so tau and dt are never stored separately.  The
solvable model has eigenvalues (N*c + a, a, ..., a) with the flat vector as
leading eigenvector, which makes every estimator comparison exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, InvalidSpectrum

KIND_SOLVABLE = "solvable"
KIND_EXPONENTIAL = "exponential"
KIND_WHITE = "white"

_KINDS = (KIND_SOLVABLE, KIND_EXPONENTIAL, KIND_WHITE)


@dataclass(frozen=True)
class CovSpec:
    """Declarative covariance model: kind plus parameters (a, c, eta, n)."""

    kind: str
    a: float
    c: float
    n: int
    eta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidSpec(f"unknown covariance kind {self.kind!r}")
        if self.n < 1 or int(self.n) != self.n:
            raise InvalidSpec("n must be a positive integer")
        if not np.isfinite(self.a) or self.a < 0.0:
            raise InvalidSpec("white-noise variance a must be finite and >= 0")
        if not np.isfinite(self.c):
            raise InvalidSpec("correlated variance c must be finite")
        if self.kind == KIND_SOLVABLE:
            if self.c < -self.a / self.n:
                raise InvalidSpec(
                    f"solvable model requires c >= -a/n, got c={self.c}"
                )
            if self.eta is not None:
                raise InvalidSpec("eta applies to the exponential kind only")
        elif self.kind == KIND_EXPONENTIAL:
            if self.c < 0.0:
                raise InvalidSpec("exponential model requires c >= 0")
            if self.eta is None or not np.isfinite(self.eta) or self.eta < 0.0:
                raise InvalidSpec(
                    f"exponential model requires a finite eta >= 0, got {self.eta}"
                )
        else:
            if self.c < 0.0:
                raise InvalidSpec("white model requires c >= 0")
            if self.eta is not None:
                raise InvalidSpec("eta applies to the exponential kind only")

    def digest(self) -> str:
        """Compact textual record used in run metadata."""
        parts = [f"kind={self.kind}", f"a={self.a!r}", f"c={self.c!r}", f"n={self.n}"]
        if self.eta is not None:
            parts.append(f"eta={self.eta!r}")
        return " ".join(parts)


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


def solvable_spectrum(a: float, c: float, n: int) -> WeightSpectrum:
    """Closed-form spectrum of the solvable model.

    Eigenvalues are (n*c + a, a, ..., a); the flat vector carries all of the
    weight, so w = (1, 0, ..., 0).  The boundary c = -a/n has a zero leading
    eigenvalue (a deterministic direction) and is rejected.
    """
    if a <= 0.0:
        raise InvalidSpec("solvable spectrum requires a > 0")
    if c < -a / n:
        raise InvalidSpec("solvable model requires c >= -a/n")
    leading = n * c + a
    if leading <= 0.0:
        raise InvalidSpec("leading eigenvalue n*c + a must be positive")
    sigmasq = np.full(n, a)
    sigmasq[0] = leading
    weights = np.zeros(n)
    weights[0] = 1.0
    return WeightSpectrum(sigmasq=sigmasq, weights=weights)

