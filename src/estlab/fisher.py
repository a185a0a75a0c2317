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
where every contraction is exact, and the eigenvalue-weighted information
``fi_eigen`` return (fi, var): the information and the variance of the
matched plain average of the same design, two finite positive floats.

One rule holds for every squared coefficient: Aw, the mean shift and the
squared norm of the mean coefficients must each square to a finite normal
float (``fi_matched``'s scale is Aw^2 itself).  A subnormal square has lost
digits and an infinite one is no answer, so breaking the rule is
InvalidSpec.  A valid input whose closed form still leaves the positive
floats (a subnormal a, say) is InvalidSpectrum.

The mean-shift magnitude <A> defaults to 1 throughout; amplification in the
partitioned strategies is carried entirely by (Aw, Awp, gamma).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .covariance import KIND_SOLVABLE, Covariance, WeightSpectrum, check_model
from .errors import InvalidSpec, InvalidSpectrum, NumericFailure, finite_positive
from .partition import as_floats, check_inside


def _check_square(name: str, *squares: float) -> None:
    """InvalidSpec unless each of ``squares``, squares of ``name``, is a finite normal float."""
    for square in squares:
        if not sys.float_info.min <= square < math.inf:
            raise InvalidSpec(f"{name} must be finite and nonzero, and must square to a "
                              f"finite normal float; its square is {square!r}")


def _answer(fi, var) -> tuple:
    """(fi, var), or InvalidSpectrum unless every entry of both is finite and positive."""
    return finite_positive("fi", fi), finite_positive("var", var)


@dataclass(frozen=True)
class TwoOutcomeSpec:
    """Variances and covariance of a two-sample data set, or of broadcasting arrays of them.

    The asymmetry x = var1/var2 > 0 and relative correlation
    r = cov/sqrt(var1*var2), with r in [-1, 1], enter only through from_xr.
    Each rule holds for every entry.
    """

    var1: float | np.ndarray
    var2: float | np.ndarray
    cov: float | np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.var1 <= 0.0) or np.any(self.var2 <= 0.0):
            raise InvalidSpec("variances must be strictly positive")
        # Tiny slack tolerates r = +/-1 specs built as r*sqrt(var1*var2).
        if np.any(self.cov * self.cov > self.var1 * self.var2 * (1.0 + 1e-12)):
            raise InvalidSpec("covariance violates the Cauchy-Schwarz bound")

    @classmethod
    def from_xr(cls, x, r) -> "TwoOutcomeSpec":
        """Build with var2 = 1, var1 = x, cov = r*sqrt(x); x and r may be arrays."""
        if not np.all(np.greater(x, 0.0)):
            raise InvalidSpec(f"the asymmetry x must be > 0, got {np.min(x).item()!r}")
        return cls(var1=x, var2=1.0, cov=r * np.sqrt(x))


def fi_matched(cov: Covariance, mu, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(fi, iv): information of the slots read, inverse variance of their matched average.

    fi = scale * mu'C^-1 mu and iv = scale * |mu|^4 / mu'C mu = 1/(w'Cw) for
    w = mu/|mu|^2, the weights of equal, wva and bgsub, with one entry per
    eta and per column of ``mu``.  ``scale`` is a channel's Aw^2, kept
    outside the contractions: quad(sqrt(s)*u) need not round like s*quad(u).
    On a segmented chain each segment's slice of ``mu`` is a design of its
    own, with its own |mu|^2, and there is one entry per segment too.
    """
    _check_square("the root of scale", scale)
    mu = np.asarray(mu, dtype=float)
    parts = [mu] if cov.segments is None else [mu[s] for s in cov.segments]
    if not all(np.any(part, axis=0).all() for part in parts):
        raise InvalidSpec("mean coefficients must not be the zero vector")
    with np.errstate(over="ignore"):
        norm = np.array([(part**2).sum(axis=0) for part in parts])
        norm = norm[0] if cov.segments is None else norm
        quartic = norm * norm
    _check_square("the squared norm of the mean coefficients", *quartic.ravel().tolist())
    return scale * cov.quad(mu), scale * norm * norm / cov.form(mu)


def fi_eigen(spectrum: WeightSpectrum, *, mean_shift: float = 1.0) -> tuple[float, float]:
    """(fi, var): information as the weighted average of inverse eigenvalues.

    fi = mean_shift^2 * N * sum_k w_k / sigma^2_k, equal to the direct
    numeric contraction of the same covariance, and var = sum_k w_k sigma^2_k
    / (N mean_shift^2), that of the plain average over mean_shift; N is the
    spectrum's number of modes.
    """
    n = spectrum.sigmasq.size
    scale = mean_shift * mean_shift
    _check_square("mean_shift", scale)
    with np.errstate(over="ignore"):  # an infinite fi is _answer's to reject
        value = scale * n * float((spectrum.weights / spectrum.sigmasq).sum())
        var = float((spectrum.weights * spectrum.sigmasq).sum()) / (n * scale)
    return _answer(value, var)


@np.errstate(over="ignore")  # an infinite entry, at a subnormal var1 say, is rejected
def fi_two_outcome(spec: TwoOutcomeSpec) -> float | np.ndarray:
    """Two-sample information (var1 + var2 - 2cov) / (var1*var2 - cov^2), per entry."""
    det = spec.var1 * spec.var2 - spec.cov * spec.cov
    if np.any(det <= 0.0):
        raise InvalidSpec("|r| = 1: degenerate covariance carries infinite information")
    return finite_positive("fi", (spec.var1 + spec.var2 - 2.0 * spec.cov) / det)


def two_outcome_variance(spec: TwoOutcomeSpec, alpha) -> float | np.ndarray:
    """Variance of the weighted estimator alpha*s1 + (1 - alpha)*s2; broadcasts."""
    beta = 1.0 - alpha
    return (
        alpha * alpha * spec.var1
        + beta * beta * spec.var2
        + 2.0 * alpha * beta * spec.cov
    )


def optimal_alpha(spec: TwoOutcomeSpec) -> float:
    """Weight minimizing two_outcome_variance: (var2 - cov)/(var1 + var2 - 2cov).

    It is 0.5 on the flat curve var1 = var2 = cov, and NumericFailure where the
    denominator cancels while var1 != var2: no float resolves that optimum.
    """
    denom = spec.var1 + spec.var2 - 2.0 * spec.cov
    if denom > 0.0:
        return (spec.var2 - spec.cov) / denom
    if spec.var1 != spec.var2:
        raise NumericFailure(f"var1 + var2 - 2cov cancels to {denom!r} with var1 != var2")
    return 0.5


def fi_wva_solvable(
    a: float, c: float, n: int, gamma: float, aw: float
) -> tuple[float, float]:
    """(fi, var) of post-selection on the solvable model: fi = Aw^2 * gN / (a + gNc).

    Any retained subset of the solvable model keeps the same structure, so
    only the retained count gamma*n enters.  With the idealized convention
    Aw^2 = 1/gamma this equals N / (a + gamma*N*c): post-selection shrinks
    the correlated variance by the retention probability.  var is that of
    the retained-slot average over Aw, (a/(gN) + c)/Aw^2.
    """
    check_model(KIND_SOLVABLE, a, c, n)
    if not 0.0 < gamma <= 1.0:
        raise InvalidSpec(f"gamma must lie in (0, 1], got {gamma}")
    aw2 = aw * aw
    _check_square("Aw", aw2)
    retained = gamma * n
    denom = a + retained * c
    # For c one ulp above -a/n, n*c can round to -a.
    if denom <= 0.0:
        raise InvalidSpec("retained covariance a + gamma*n*c must be positive")
    return _answer(aw2 * retained / denom, (a / retained + c) / aw2)


@np.errstate(over="ignore", invalid="ignore")
def fi_opm_solvable(a: float, c: float, n: int, gamma, aw, awp) -> tuple:
    """(fi, var, (I1, I2, I3)): exact two-channel information on the solvable model.

    fi = (sum mu^2 - c*(sum mu)^2 / (a + N*c)) / a             for c < 0,
       = (a*sum mu^2 + c*n1*n2*(Aw - Awp)^2) / (a^2 + N*a*c)  for c >= 0,

    with n1 = g*N and n2 = (1-g)*N: each form where its terms are all
    non-negative, so that neither cancels.  The block terms (I1, I2, I3) split
    the second form, and var is that of the matched plain average.  For the
    overlap-model coefficients fi collapses to N/a at every gamma: using both
    channels and their cross-correlation removes the correlated noise entirely.
    gamma, aw and awp may be arrays that broadcast, each entry with its own
    rules (an inf or nan is theirs to reject, not a warning's); scalars give floats.
    """
    check_model(KIND_SOLVABLE, a, c, n)
    gamma, aw, awp = np.broadcast_arrays(check_inside("gamma", gamma, 1.0, "1"), aw, awp)
    n1 = gamma * n
    n2 = (1.0 - gamma) * n
    sum_mu2 = n1 * aw * aw + n2 * awp * awp
    _check_square("the squared norm of the mean coefficients",
                  *(sum_mu2 * sum_mu2).ravel().tolist())
    denom = a * a + n * a * c
    # a*a underflows for a below about 1e-154, and for c one ulp above
    # -a/n, n*c can round to -a.
    if not (denom > 0.0 and a + n * c > 0.0):
        raise InvalidSpectrum(f"a*a + n*a*c = {denom!r} and a + n*c = {a + n * c!r} "
                              "must both be positive")
    i1 = aw * aw * n1 * (a + c * n2) / denom
    i2 = awp * awp * n2 * (a + c * n1) / denom
    i3 = -2.0 * c * aw * awp * n1 * n2 / denom
    sum_mu = n1 * aw + n2 * awp
    ew_var = (a * sum_mu2 + c * sum_mu * sum_mu) / (sum_mu2 * sum_mu2)
    if c < 0.0:  # the block terms grow without bound and cancel as c -> -a/n
        value = (sum_mu2 - c * sum_mu * sum_mu / (a + n * c)) / a
    else:
        value = (a * sum_mu2 + c * n1 * n2 * ((aw - awp) * (aw - awp))) / denom
    return (*as_floats(*_answer(value, ew_var)), as_floats(i1, i2, i3))
