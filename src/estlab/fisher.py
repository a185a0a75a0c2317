"""Fisher information and estimator variances for the three strategies.

For zero-mean Gaussian noise with known covariance C and per-slot mean
coefficients mu_prime (the derivative of the mean vector in the unknown d),
the Fisher information is the quadratic form

    I = mu_prime.T @ inv(C) @ mu_prime

and 1/I is the smallest variance any unbiased estimator of d can reach.
The direct strategy has mu_prime = <A> * ones; a two-channel partition has
mu_prime = (Aw on channel 1, Awp on channel 2), and I splits into three
block terms I1 (channel 1 alone), I2 (channel 2 alone) and I3 (their
cross-correlations).  Every study reads its numeric contractions from
``fi_matched``.  The closed forms for the solvable model C = a*I + c*J,
where every contraction is exact, return a FisherReport like fi_eigen.

The mean-shift magnitude <A> defaults to 1 throughout; amplification in the
partitioned strategies is carried entirely by (Aw, Awp, gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import KIND_SOLVABLE, Covariance, WeightSpectrum, check_model
from .errors import DegenerateDenominator, InvalidSpec, InvalidSpectrum

METHOD_CLOSED_FORM = "closed_form"
METHOD_NUMERIC_INVERSE = "numeric_inverse"
METHOD_EIGEN_WEIGHTED = "eigen_weighted"


@dataclass(frozen=True)
class FisherReport:
    """Fisher information with provenance and optional decomposition.

    ``terms`` holds the (I1, I2, I3) block split for two-channel designs;
    ``equal_weight_variance`` is the variance of the matched-coefficient
    plain average (sum of mu_prime[i]*s[i] over sum of mu_prime[i]^2), the
    simplest unbiased estimator for the same design.
    """

    value: float
    method: str
    terms: tuple[float, float, float] | None = None
    equal_weight_variance: float | None = None

    def __post_init__(self) -> None:
        if not self.value > 0.0:
            raise InvalidSpectrum(f"Fisher information must be positive, got {self.value}")
        if self.terms is not None:
            total = self.terms[0] + self.terms[1] + self.terms[2]
            if abs(total - self.value) > 1e-9 * abs(self.value):
                raise InvalidSpectrum(
                    f"term decomposition sums to {total}, expected {self.value}"
                )


@dataclass(frozen=True)
class TwoOutcomeSpec:
    """Variances and covariance of a two-sample data set.

    The asymmetry x = var1/var2 > 0 and relative correlation
    r = cov/sqrt(var1*var2), with r in [-1, 1], enter only through from_xr.
    """

    var1: float
    var2: float
    cov: float

    def __post_init__(self) -> None:
        if self.var1 <= 0.0 or self.var2 <= 0.0:
            raise InvalidSpec("variances must be strictly positive")
        # Tiny slack tolerates r = +/-1 specs built as r*sqrt(var1*var2).
        if self.cov * self.cov > self.var1 * self.var2 * (1.0 + 1e-12):
            raise InvalidSpec("covariance violates the Cauchy-Schwarz bound")

    @classmethod
    def from_xr(cls, x: float, r: float) -> "TwoOutcomeSpec":
        """Build with var2 = 1, var1 = x, cov = r*sqrt(x)."""
        if not x > 0.0:
            raise InvalidSpec(f"the asymmetry x must be > 0, got {x!r}")
        return cls(var1=x, var2=1.0, cov=r * math.sqrt(x))


def fi_matched(cov: Covariance, mu, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(fi, iv): information of the slots read, inverse variance of their matched average.

    fi = scale * mu'C^-1 mu and iv = scale * |mu|^4 / mu'C mu = 1/(w'Cw) for
    w = mu/|mu|^2, the weights of equal, wva and bgsub, with one entry per
    eta and per column of ``mu``.  ``scale`` is a channel's Aw^2, kept
    outside the contractions: quad(sqrt(s)*u) need not round like s*quad(u).
    """
    if not 0.0 < scale < math.inf:
        raise InvalidSpec(f"scale (Aw^2) must be positive and finite, got {scale!r}")
    norm = (np.asarray(mu, dtype=float) ** 2).sum(axis=0)
    if not np.all(norm > 0.0):
        raise InvalidSpec("mean coefficients must not be the zero vector")
    return scale * cov.quad(mu), scale * norm * norm / cov.form(mu)


def fi_eigen(spectrum: WeightSpectrum, *, mean_shift: float = 1.0) -> FisherReport:
    """Information as the weighted average of inverse eigenvalues.

    value = mean_shift^2 * N * sum_k w_k / sigma^2_k, equal to the direct
    numeric contraction of the same covariance; N is the spectrum's number
    of modes.
    """
    if mean_shift == 0.0:
        raise InvalidSpec("mean shift must be nonzero")
    n = spectrum.sigmasq.size
    scale = mean_shift * mean_shift
    value = scale * n * float((spectrum.weights / spectrum.sigmasq).sum())
    ew_var = float((spectrum.weights * spectrum.sigmasq).sum()) / (n * scale)
    return FisherReport(
        value=value,
        method=METHOD_EIGEN_WEIGHTED,
        equal_weight_variance=ew_var,
    )


def fi_two_outcome(spec: TwoOutcomeSpec) -> float:
    """Two-sample information (var1 + var2 - 2cov) / (var1*var2 - cov^2)."""
    det = spec.var1 * spec.var2 - spec.cov * spec.cov
    if det <= 0.0:
        raise InvalidSpec("|r| = 1: degenerate covariance carries infinite information")
    return (spec.var1 + spec.var2 - 2.0 * spec.cov) / det


def two_outcome_variance(spec: TwoOutcomeSpec, alpha: float) -> float:
    """Variance of the weighted estimator alpha*s1 + (1 - alpha)*s2."""
    beta = 1.0 - alpha
    return (
        alpha * alpha * spec.var1
        + beta * beta * spec.var2
        + 2.0 * alpha * beta * spec.cov
    )


def optimal_alpha(spec: TwoOutcomeSpec) -> float:
    """Weight minimizing two_outcome_variance: (var2 - cov)/(var1 + var2 - 2cov)."""
    denom = spec.var1 + spec.var2 - 2.0 * spec.cov
    if denom <= 0.0:
        raise DegenerateDenominator(
            "var1 + var2 - 2cov vanishes; every weighting has equal variance"
        )
    return (spec.var2 - spec.cov) / denom


def fi_wva_solvable(a: float, c: float, n: int, gamma: float, aw: float) -> FisherReport:
    """Post-selected information on the solvable model: Aw^2 * gN / (a + gNc).

    Any retained subset of the solvable model keeps the same structure, so
    only the retained count gamma*n enters.  With the idealized convention
    Aw^2 = 1/gamma this equals N / (a + gamma*N*c): post-selection shrinks
    the correlated variance by the retention probability.  The equal-weight
    variance is that of the retained-slot average over Aw, (a/(gN) + c)/Aw^2.
    """
    check_model(KIND_SOLVABLE, a, c, n)
    if not 0.0 < gamma <= 1.0:
        raise InvalidSpec(f"gamma must lie in (0, 1], got {gamma}")
    if not (math.isfinite(aw) and aw != 0.0):
        raise InvalidSpec(f"Aw must be finite and nonzero, got {aw}")
    retained = gamma * n
    denom = a + retained * c
    # For c one ulp above -a/n, n*c can round to -a.
    if denom <= 0.0:
        raise InvalidSpec("retained covariance a + gamma*n*c must be positive")
    return FisherReport(
        value=aw * aw * retained / denom,
        method=METHOD_CLOSED_FORM,
        equal_weight_variance=(a / retained + c) / (aw * aw),
    )


def fi_opm_solvable(
    a: float, c: float, n: int, gamma: float, aw: float, awp: float
) -> FisherReport:
    """Exact two-channel information on the solvable model, with block terms.

    value = (sum mu^2 - c*(sum mu)^2 / (a + N*c)) / a
          = (a*N*[g*Aw^2 + (1-g)*Awp^2] + c*g*(1-g)*N^2*(Aw - Awp)^2)
            / (a^2 + N*a*c)

    and ``terms`` splits the second form into (I1, I2, I3).  For the
    overlap-model coefficients this collapses to N/a at every gamma: using
    both channels and their cross-correlation removes the correlated noise
    entirely.
    """
    check_model(KIND_SOLVABLE, a, c, n)
    if not 0.0 < gamma < 1.0:
        raise InvalidSpec(f"gamma must lie strictly inside (0, 1), got {gamma}")
    n1 = gamma * n
    n2 = (1.0 - gamma) * n
    denom = a * a + n * a * c
    i1 = aw * aw * n1 * (a + c * n2) / denom
    i2 = awp * awp * n2 * (a + c * n1) / denom
    i3 = -2.0 * c * aw * awp * n1 * n2 / denom
    sum_mu2 = n1 * aw * aw + n2 * awp * awp
    sum_mu = n1 * aw + n2 * awp
    ew_var = (a * sum_mu2 + c * sum_mu * sum_mu) / (sum_mu2 * sum_mu2)
    return FisherReport(
        # Sherman-Morrison.  As c -> -a/n the block terms grow without bound
        # and cancel, while for c < 0 both terms here are positive.
        value=(sum_mu2 - c * sum_mu * sum_mu / (a + n * c)) / a,
        method=METHOD_CLOSED_FORM,
        terms=(i1, i2, i3),
        equal_weight_variance=ew_var,
    )
