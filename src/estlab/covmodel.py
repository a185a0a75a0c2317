"""Covariance models and their closed-form spectral data.

Three noise models are supported, all with per-sample white variance ``a``
and correlated variance ``c``:

* ``solvable``     C_ij = a*delta_ij + c          (a common random offset)
* ``exponential``  C_ij = a*delta_ij + c*exp(-|i-j|/eta)
* ``white``        C_ij = (a + c)*delta_ij

``eta = tau/dt`` is the correlation time in units of the sampling interval;
only the ratio matters, so tau and dt are never stored separately.
``check_model`` is the model's domain rule, the one place that decides which
(kind, a, c, n) give a covariance that is nonsingular by construction;
CovSpec and every closed form apply it.  The spectra live with the operator,
in ``covariance.Chain.spectrum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, InvalidSpectrum

KIND_SOLVABLE = "solvable"
KIND_EXPONENTIAL = "exponential"
KIND_WHITE = "white"

_KINDS = (KIND_SOLVABLE, KIND_EXPONENTIAL, KIND_WHITE)


def check_model(kind: str, a: float, c: float, n: int) -> None:
    """Raise InvalidSpec unless a*I + c*K of this kind is nonsingular by construction.

    n is a positive integer, a finite and >= 0 and c finite.  The solvable
    model, with eigenvalues a + n*c and a, needs a > 0 and c > -a/n; the
    white and exponential models need c >= 0 and not a = c = 0.
    """
    if kind not in _KINDS:
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
