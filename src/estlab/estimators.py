"""Estimators mapping a sampled dataset to an estimate of d.

Every estimator is linear in the samples, d_hat = w @ s.  ``check_fits``
applies the named estimator's design-fit rules, and ``estimator_weights``
then returns w once for a whole Monte Carlo run.  On noise-free data every
estimator returns d exactly, wva-corrected only where the mean coefficients
sum to zero, as the overlap-model pair of a blocks design does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import KIND_SOLVABLE, Covariance, CovSpec
from .errors import InvalidSpec
from .partition import SCHEME_ALTERNATING, SCHEME_DIRECT, PartitionDesign

ESTIMATOR_NAMES = ("equal", "ml", "wva", "bgsub", "wva-corrected")


# No estlab module builds one; perfbench/tracing.py imports it by name.
@dataclass(frozen=True)
class Dataset:
    """Samples s_i = mu_prime[i]*d + x_i together with their design."""

    samples: np.ndarray
    design: PartitionDesign

    def __post_init__(self) -> None:
        s = np.array(self.samples, dtype=float)
        if s.shape != (self.design.n,):
            raise InvalidSpec(f"{s.size} samples for a design with {self.design.n} slots")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)


def check_fits(name: str, spec: CovSpec, design: PartitionDesign) -> None:
    """Raise unless the named estimator applies to this model and design."""
    if name not in ESTIMATOR_NAMES:
        raise InvalidSpec(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")
    if design.n != spec.n:
        raise InvalidSpec(f"design covers {design.n} slots but spec has n={spec.n}")
    if not np.isfinite([design.aw, design.awp]).all():  # Aw, at a subnormal phi or gamma
        raise InvalidSpec(f"the coefficients must be finite, got {design.aw!r}, {design.awp!r}")
    if name == "wva-corrected":
        if spec.kind != KIND_SOLVABLE:
            raise InvalidSpec("wva-corrected applies to the solvable model only")
    if name == "equal":
        if design.scheme != SCHEME_DIRECT or design.aw != 1.0:
            raise InvalidSpec("the equal estimator needs a single channel with "
                              "coefficient 1 (--scheme direct)")
    elif name == "ml":
        if not design.mu_prime.any():
            raise InvalidSpec("ml needs a design with a nonzero mean coefficient")
    elif name == "bgsub":
        if design.scheme == SCHEME_DIRECT or sorted((design.aw, design.awp)) != [-1.0, 1.0]:
            raise InvalidSpec("bgsub needs a two-channel design with coefficients "
                              "+1 and -1 (alternating, or blocks with --gamma 0.5)")
    else:
        if design.scheme == SCHEME_ALTERNATING:
            raise InvalidSpec(f"{name} needs a retained channel")
        if name == "wva-corrected" and design.scheme == SCHEME_DIRECT:
            raise InvalidSpec("wva-corrected needs a retained/rejected design")
        if design.retained.size == 0:
            raise InvalidSpec("this retention pattern kept no slots")
        if design.aw == 0.0:
            raise InvalidSpec("the retained channel has zero coefficient")


def estimator_weights(
    name: str, spec: CovSpec, design: PartitionDesign, cov: Covariance
) -> np.ndarray:
    """Weights w of the named estimator, d_hat = w @ samples, once check_fits passed.

    equal, bgsub and wva are the matched average mu_S/|mu_S|^2 of the slots
    S they read, of variance 1/iv of ``fisher.fi_matched``; check_fits leaves
    |mu| constant on S, so it is 1/(mu_i |S|) there.  Only ml reads ``cov``,
    for w = C^-1 mu' / (mu' C^-1 mu').
    """
    n = design.n
    mu = design.mu_prime
    if name == "ml":
        y = cov.solve(mu)
        return y / float(y @ mu)
    read = design.retained if name.startswith("wva") else np.arange(n)
    weights = np.zeros(n)
    weights[read] = 1.0 / (mu[read] * read.size)
    if name == "wva-corrected":
        weights -= design.aw * spec.c * (read.size / n) / (spec.a + n * spec.c)
    return weights
