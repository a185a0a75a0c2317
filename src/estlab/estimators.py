"""Estimators mapping a sampled dataset to an estimate of d.

Every estimator is linear in the samples, d_hat = w @ s.  ``estimator_weights``
returns w once for a whole Monte Carlo run; the ``estimate_*`` functions apply
one estimator to one Dataset and are the per-sample reference.  Both go
through the same design-fit rules, which ``check_fits`` applies by name.

All estimators are exactly unbiased on noise-free data by construction,
with one caveat: the corrected weak-value estimator inherits an O(gamma)
approximation from its derivation unless the default unbiased base is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import Covariance
from .covmodel import KIND_SOLVABLE, CovSpec
from .errors import DimensionMismatch, EmptyRetainedSet, InvalidSpec, WrongDesign
from .partition import CHANNEL_RETAINED, PartitionDesign

ESTIMATOR_NAMES = ("equal", "ml", "wva", "bgsub", "wva-corrected")


@dataclass(frozen=True)
class Dataset:
    """Samples s_i = mu_prime[i]*d + x_i together with their design."""

    samples: np.ndarray
    design: PartitionDesign

    def __post_init__(self) -> None:
        s = np.array(self.samples, dtype=float)
        if s.shape != (self.design.n,):
            raise DimensionMismatch(
                f"{s.size} samples for a design with {self.design.n} slots"
            )
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)


def _check_design(name: str, design: PartitionDesign) -> None:
    """The design-fit rules of the named estimator."""
    if name == "equal":
        if len(design.channels) != 1 or design.coefficients[0] != 1.0:
            raise WrongDesign("the equal estimator needs a single channel with "
                              "coefficient 1 (--scheme direct)")
    elif name == "ml":
        if not design.mu_prime.any():
            raise WrongDesign("ml needs a design with a nonzero mean coefficient")
    elif name == "bgsub":
        coeffs = np.sort(design.coefficients)
        if len(design.channels) != 2 or coeffs[0] != -1.0 or coeffs[1] != 1.0:
            raise WrongDesign("bgsub needs a two-channel design with coefficients "
                              "+1 and -1 (alternating, or blocks with --gamma 0.5)")
    else:
        if CHANNEL_RETAINED not in design.channels:
            raise WrongDesign(f"{name} needs a retained channel")
        if name == "wva-corrected" and len(design.channels) != 2:
            raise WrongDesign("wva-corrected needs a retained/rejected design")
        if design.channel_slots(CHANNEL_RETAINED).size == 0:
            raise EmptyRetainedSet("this retention pattern kept no slots")
        if design.coefficient(CHANNEL_RETAINED) == 0.0:
            raise WrongDesign("the retained channel has zero coefficient")


def _check_correction(n: int, a: float, c: float) -> None:
    if a <= 0.0 or a + n * c <= 0.0:
        raise InvalidSpec("correction requires solvable parameters with a + n*c > 0")


def check_fits(name: str, spec: CovSpec, design: PartitionDesign) -> None:
    """Raise unless the named estimator applies to this model and design."""
    if name not in ESTIMATOR_NAMES:
        raise WrongDesign(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")
    if design.n != spec.n:
        raise InvalidSpec(f"design covers {design.n} slots but spec has n={spec.n}")
    if name == "wva-corrected":
        if spec.kind != KIND_SOLVABLE:
            raise InvalidSpec("wva-corrected applies to the solvable model only")
        _check_correction(spec.n, spec.a, spec.c)
    _check_design(name, design)


def estimator_weights(
    name: str, spec: CovSpec, design: PartitionDesign, cov: Covariance
) -> np.ndarray:
    """Weights w of the named estimator, d_hat = w @ samples, after check_fits.

    ``cov`` is the model covariance; only ml reads it, for
    w = C^-1 mu' / (mu' C^-1 mu').
    """
    check_fits(name, spec, design)
    n = design.n
    mu = design.mu_prime
    if name == "equal":
        return np.full(n, 1.0 / n)
    if name == "bgsub":
        return mu / n
    if name == "ml":
        y = cov.solve(mu)
        return y / float(y @ mu)
    retained = design.channel_slots(CHANNEL_RETAINED)
    aw = design.coefficient(CHANNEL_RETAINED)
    weights = np.zeros(n)
    weights[retained] = 1.0 / (aw * retained.size)
    if name == "wva-corrected":
        weights -= aw * spec.c * (retained.size / n) / (spec.a + n * spec.c)
    return weights


def estimate_equal_weight(data: Dataset) -> float:
    """Arithmetic mean; requires a single-channel design with unit coefficient."""
    _check_design("equal", data.design)
    return float(np.mean(data.samples))


def estimate_ml(data: Dataset, cov: Covariance) -> float:
    """Maximum-likelihood (minimum-variance) estimator.

    d_hat = (mu'.T @ inv(C) @ s) / (mu'.T @ inv(C) @ mu'); the denominator is
    the partitioned Fisher information of the same design.
    """
    if cov.dim != data.design.n:
        raise DimensionMismatch(
            f"covariance dimension {cov.dim} does not match {data.design.n} slots"
        )
    _check_design("ml", data.design)
    mu = data.design.mu_prime
    weights = cov.solve(mu)
    return float(weights @ data.samples) / float(weights @ mu)


def estimate_wva(data: Dataset, literal_prefactor: bool = False) -> float:
    """Weak-value estimator built from the retained channel only.

    Default normalization sum(s_retained) / (Aw * m) with m the realized
    retained count, which is exactly unbiased for every design.  With
    ``literal_prefactor`` the small-overlap form (Aw / n) * sum(s_retained)
    is used instead; the two coincide when Aw^2 * gamma = 1.
    """
    design = data.design
    _check_design("wva", design)
    retained = design.channel_slots(CHANNEL_RETAINED)
    aw = design.coefficient(CHANNEL_RETAINED)
    total = float(data.samples[retained].sum())
    if literal_prefactor:
        return aw * total / design.n
    return total / (aw * retained.size)


def estimate_background_subtraction(data: Dataset) -> float:
    """Channel difference (sum of +1 slots minus sum of -1 slots) over n.

    Requires a two-channel design whose coefficients are +1 and -1; common-
    mode offsets then cancel exactly.
    """
    design = data.design
    _check_design("bgsub", design)
    return float(design.mu_prime @ data.samples) / design.n


def estimate_wva_corrected(
    data: Dataset, a: float, c: float, literal_prefactor: bool = False
) -> float:
    """Weak-value estimate plus an all-data correction for the common offset.

    On the solvable model with parameters (a, c) the minimum-variance
    estimator in the strongly post-selected regime is the weak-value
    estimate minus (Aw * c * gamma / (a + n*c)) times the sum of all
    samples.  The correction prefactor vanishes as c -> 0.
    """
    design = data.design
    _check_correction(design.n, a, c)
    _check_design("wva-corrected", design)
    base = estimate_wva(data, literal_prefactor=literal_prefactor)
    aw = design.coefficient(CHANNEL_RETAINED)
    gamma = design.channel_slots(CHANNEL_RETAINED).size / design.n
    prefactor = aw * c * gamma / (a + design.n * c)
    return base - prefactor * float(data.samples.sum())
