"""Seeded trial ensembles of correlated Gaussian data.

Reproducibility contract: the generator is PCG64 and normal variates come
from the inverse CDF applied to a centered 53-bit uniform lattice, one raw
word per normal, so every draw is a pure function of the seed within one
build.  A run reads one stream, PCG64(SeedSequence(seed, spawn_key=(0,))),
in order: trial t takes its n normals from raw words t*n ... (t+1)*n - 1.
A trial therefore depends only on the seed, n and t, not on the trial count
or on how trials are grouped, and a longer run extends a shorter one.  The
stream is a child of SeedSequence(seed), so it shares no words with the
root stream from which a bernoulli design draws its retention mask.

A run never forms a trial's samples: with samples = mean + L @ z, L the
Cholesky factor of C, and the estimator's weights w, trial t's estimate is
w @ mean + z_t @ (L.T @ w).  covariance.Chain computes the loading L.T @ w
in O(n) without forming L, so a run needs O(n) memory besides its draws.
Trials are drawn in blocks of about BLOCK_WORDS normals, at least one trial
per block, so the draw memory stays bounded whatever n and the trial count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .covariance import CovSpec, make_covariance
from .errors import InvalidSpec
from .estimators import check_fits, estimator_weights
from .partition import PartitionDesign, check_seed

GENERATOR_NAME = "pcg64"
NORMAL_METHOD = "inverse-cdf"

BLOCK_WORDS = 1 << 14
# The documented input rule; at the cap the estimates alone take 32 GiB.
MAX_TRIALS = 1 << 32


def _trial_normals(stream: np.random.PCG64, count: int, n: int) -> np.ndarray:
    """The stream's next count * n words as count rows of n standard normals.

    random_raw >> 11 is bit for bit Generator.integers(0, 2**53): Lemire's
    method never rejects for a power-of-two range.
    """
    words = stream.random_raw(count * n).reshape(count, n)
    words >>= 11
    # u = (k + 0.5) / 2^53, but k + 0.5 rounds to even past 2^52, so the last
    # word k = 2^53 - 1 would give u = 1 and an infinite normal; the clamp
    # keeps u strictly inside (0, 1) and moves no other word's value.
    u = words + 0.5
    u *= 2.0 ** -53
    np.minimum(u, 1.0 - 2.0 ** -53, out=u)
    return ndtri(u, out=u)


@dataclass(frozen=True)
class TrialEnsemble:
    """Record of a seeded estimator run: estimates plus summary moments."""

    seed: int
    trials: int
    estimates: np.ndarray
    empirical_mean: float
    empirical_variance: float

    def __post_init__(self) -> None:
        est = np.asarray(self.estimates, dtype=float)
        est.setflags(write=False)
        object.__setattr__(self, "estimates", est)


def run_trials(
    spec: CovSpec, design: PartitionDesign, estimator: str,
    d_true: float, trials: int, seed: int,
) -> TrialEnsemble:
    """Run ``trials`` independent seeded datasets through one estimator.

    Trial t's estimate is that of samples = design.mu_prime * d_true +
    L @ z_t with z_t the run stream's normals t*n ... (t+1)*n - 1; the
    empirical variance uses the unbiased (T - 1) normalization.
    """
    try:
        trials = operator.index(trials)
    except TypeError:
        raise InvalidSpec(f"trials must be an integer, got {trials!r}") from None
    # At least 2 for a variance.
    if not 2 <= trials <= MAX_TRIALS:
        raise InvalidSpec(f"trials must lie in [2, 2**32], got {trials}")
    seed = check_seed(seed)
    if not math.isfinite(d_true):
        raise InvalidSpec(f"d_true must be finite, got {d_true!r}")
    # Invalid inputs are reported before factoring can fail numerically.
    check_fits(estimator, spec, design)
    cov = make_covariance(spec)
    weights = estimator_weights(estimator, spec, design, cov)
    offset = float(weights @ (design.mu_prime * d_true))
    loading = cov.loading(weights)
    stream = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,)))
    per_block = max(1, BLOCK_WORDS // spec.n)
    estimates = np.empty(trials)
    for first in range(0, trials, per_block):
        count = min(per_block, trials - first)
        z = _trial_normals(stream, count, spec.n)
        # Each row is summed the same way whatever the block's row count, so
        # a longer run reproduces a shorter one's estimates; einsum is not
        # row-wise past 8192 columns.
        z *= loading
        estimates[first:first + count] = offset + z.sum(axis=1)

    return TrialEnsemble(
        seed=seed,
        trials=trials,
        estimates=estimates,
        empirical_mean=float(np.mean(estimates)),
        empirical_variance=float(np.var(estimates, ddof=1)),
    )
