"""Fisher information and estimator variances for the three strategies.

For zero-mean Gaussian noise with known covariance C and per-slot mean
coefficients mu_prime (the derivative of the mean vector in the unknown d),
the Fisher information is the quadratic form

    I = mu_prime.T @ inv(C) @ mu_prime

and 1/I is the smallest variance any unbiased estimator of d can reach.
The direct strategy has mu_prime = <A> * ones; a two-channel partition has
mu_prime = (Aw on channel 1, Awp on channel 2), and I splits into three
block terms I1 (channel 1 alone), I2 (channel 2 alone) and I3 (their
cross-correlations).  The closed forms for the solvable model C = a*I + c*J,
where every contraction is exact, return a FisherReport like the others.

The mean-shift magnitude <A> defaults to 1 throughout; amplification in the
partitioned strategies is carried entirely by (Aw, Awp, gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import KIND_SOLVABLE, Covariance, WeightSpectrum, check_model
from .errors import DegenerateDenominator, InvalidSpec, InvalidSpectrum
from .partition import PartitionDesign

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


def fi_direct_numeric(cov: Covariance, mean_shift: float = 1.0) -> FisherReport:
    """Direct-strategy information mean_shift^2 * 1'C^-1 1 via ``cov.quad``."""
    if mean_shift == 0.0:
        raise InvalidSpec("mean shift must be nonzero")
    ones = np.ones(cov.dim)
    scale = mean_shift * mean_shift
    ew_var = float(cov.form(ones)) / (cov.dim * cov.dim * scale)
    return FisherReport(
        value=scale * float(cov.quad(ones)),
        method=METHOD_NUMERIC_INVERSE,
        equal_weight_variance=ew_var,
    )


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


def fi_partitioned(
    cov: Covariance,
    mu_prime: np.ndarray,
    design: PartitionDesign | None = None,
) -> FisherReport:
    """Information mu'.T @ inv(C) @ mu' for an arbitrary mean-coefficient vector.

    When a two-channel design is supplied the value is decomposed into
    (I1, I2, I3) by restricting the inverse-covariance contraction to the
    (1,1), (2,2) and cross blocks of the partition; the blocks refer to the
    inverse of the whole matrix, not to inverses of the sub-blocks.
    """
    mu = np.asarray(mu_prime, dtype=float)
    if mu.shape != (cov.dim,):
        raise InvalidSpec(f"mu_prime length {mu.size} does not match dimension {cov.dim}")
    norm = float(mu @ mu)
    if norm == 0.0:
        raise InvalidSpec("mu_prime must not be the zero vector")
    terms: tuple[float, float, float] | None = None
    if design is not None and len(design.channels) == 2:
        if design.n != cov.dim:
            raise InvalidSpec(
                f"design covers {design.n} slots, matrix dimension is {cov.dim}"
            )
        masked = np.zeros((cov.dim, 2))
        for k in range(2):
            sel = design.assignment == k
            masked[sel, k] = mu[sel]
        blocks = masked.T @ cov.solve(masked)
        terms = (
            float(blocks[0, 0]),
            float(blocks[1, 1]),
            float(blocks[0, 1] + blocks[1, 0]),
        )
        value = terms[0] + terms[1] + terms[2]
    else:
        value = float(mu @ cov.solve(mu))
    return FisherReport(
        value=value,
        method=METHOD_NUMERIC_INVERSE,
        terms=terms,
        equal_weight_variance=float(cov.form(mu)) / (norm * norm),
    )


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

    value = (a*N*[g*Aw^2 + (1-g)*Awp^2] + c*g*(1-g)*N^2*(Aw - Awp)^2)
            / (a^2 + N*a*c)

    For the overlap-model coefficients this collapses to N/a at every gamma:
    using both channels and their cross-correlation removes the correlated
    noise entirely.
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
        value=i1 + i2 + i3,
        method=METHOD_CLOSED_FORM,
        terms=(i1, i2, i3),
        equal_weight_variance=ew_var,
    )
