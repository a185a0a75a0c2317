"""Seeded generation of correlated Gaussian data and trial ensembles.

Reproducibility contract: the generator is PCG64 and normal variates come
from the inverse CDF applied to a 53-bit uniform lattice, so every draw is
a pure function of the seed within one build.  Trial t of a run uses the
substream SeedSequence(seed, spawn_key=(t,)), which makes trials
independent and the ensemble insensitive to execution order.

A run never forms a trial's samples: with samples = mean + L @ z and the
estimator's weights w, trial t's estimate is w @ mean + z_t @ (L.T @ w).
Trials are drawn BLOCK_TRIALS at a time, each substream filling one row with
PCG64.random_raw(n) >> 11, bit for bit the Generator.integers(0, 2**53) draw
of standard_normal (Lemire's method never rejects for a power-of-two range);
a block takes one inverse CDF, and memory stays O(BLOCK_TRIALS * n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .covariance import Dense
from .covmodel import CovSpec, build
from .errors import InvalidSpec
from .estimators import estimator_weights
from .matkernel import SymMatrix
from .partition import PartitionDesign, mean_vector

GENERATOR_NAME = "pcg64"
NORMAL_METHOD = "inverse-cdf"

BLOCK_TRIALS = 256


def standard_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normals via the inverse CDF on a centered 53-bit lattice.

    u = (k + 0.5) / 2^53 with k uniform on [0, 2^53) keeps u strictly inside
    (0, 1), so ndtri never sees 0 or 1.
    """
    return _lattice_normals(rng.integers(0, 1 << 53, size=size, dtype=np.uint64))


def _lattice_normals(lattice: np.ndarray) -> np.ndarray:
    u = lattice + 0.5
    u *= 2.0 ** -53
    return ndtri(u, out=u)


def _trial_normals(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """Rows of standard_normal(_rng_for(seed, t), n) for t in [first, first + count)."""
    words = np.empty((count, n), dtype=np.uint64)
    sequence, generator = np.random.SeedSequence, np.random.PCG64
    for i in range(count):
        words[i] = generator(sequence(seed, spawn_key=(first + i,))).random_raw(n)
    words >>= 11
    return _lattice_normals(words)


def _rng_for(seed, trial: int | None = None) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        sequence = seed
    else:
        key = () if trial is None else (trial,)
        sequence = np.random.SeedSequence(int(seed), spawn_key=key)
    return np.random.default_rng(sequence)


def sample_noise(matrix: SymMatrix, seed) -> np.ndarray:
    """One zero-mean Gaussian vector with covariance ``matrix``.

    x = L @ z with L the Cholesky factor; identical seeds give bit-identical
    vectors within a build.
    """
    lower = Dense(matrix).lower
    z = standard_normal(_rng_for(seed), matrix.dim)
    return lower @ z


@dataclass(frozen=True)
class TrialEnsemble:
    """Record of a seeded estimator run: estimates plus summary moments."""

    seed: int
    trials: int
    estimates: np.ndarray
    empirical_mean: float
    empirical_variance: float
    config_digest: str

    def __post_init__(self) -> None:
        est = np.asarray(self.estimates, dtype=float)
        est.setflags(write=False)
        object.__setattr__(self, "estimates", est)


def run_trials(
    spec: CovSpec,
    design: PartitionDesign,
    estimator: str,
    d_true: float = 1.0,
    trials: int = 1000,
    seed: int = 0,
) -> TrialEnsemble:
    """Run ``trials`` independent seeded datasets through one estimator.

    Trial t's estimate is that of samples = mean_vector(design, d_true) +
    L @ z_t with z_t drawn from its own substream; the empirical variance
    uses the unbiased (T - 1) normalization.
    """
    if trials < 2:
        raise InvalidSpec("at least 2 trials are required for a variance")
    cov = Dense(build(spec))
    weights = estimator_weights(estimator, spec, design, cov)
    offset = float(weights @ mean_vector(design, d_true))
    loading = cov.lower.T @ weights
    estimates = np.empty(trials)
    for first in range(0, trials, BLOCK_TRIALS):
        count = min(BLOCK_TRIALS, trials - first)
        z = _trial_normals(int(seed), first, count, spec.n)
        # A row-wise einsum keeps each trial's sum independent of the block's
        # row count, so a longer run reproduces a shorter one's estimates.
        estimates[first:first + count] = offset + np.einsum("ij,j->i", z, loading)

    digest = " | ".join(
        [
            spec.digest(),
            design.digest(),
            f"estimator={estimator}",
            f"d_true={d_true!r}",
            f"trials={trials}",
            f"seed={seed}",
            f"rng={GENERATOR_NAME} normal={NORMAL_METHOD}",
        ]
    )
    return TrialEnsemble(
        seed=seed,
        trials=trials,
        estimates=estimates,
        empirical_mean=float(np.mean(estimates)),
        empirical_variance=float(np.var(estimates, ddof=1)),
        config_digest=digest,
    )
