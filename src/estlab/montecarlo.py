"""Seeded trial ensembles of correlated Gaussian data.

Reproducibility contract: the generator is PCG64 and normal variates come
from the inverse CDF applied to a centered 53-bit uniform lattice, so every
draw is a pure function of the seed within one build.  Trial t of a run uses
the substream SeedSequence(seed, spawn_key=(t,)), which makes trials
independent and the ensemble insensitive to execution order.

A run never forms a trial's samples: with samples = mean + L @ z, L the
Cholesky factor of C, and the estimator's weights w, trial t's estimate is
w @ mean + z_t @ (L.T @ w).  covariance.Chain computes the loading L.T @ w
in O(n) without forming L, so a run needs O(n) memory besides its draws.
Trials are drawn BLOCK_TRIALS at a time.  The block's substream seeds come
from one vectorized pass of SeedSequence's hash (_spawn_states), so no
SeedSequence object is built per trial; each trial's PCG64 then fills one row
with random_raw(n) >> 11, bit for bit the Generator.integers(0, 2**53) draw
(Lemire's method never rejects for a power-of-two range).  A block takes one
inverse CDF, and memory stays O(BLOCK_TRIALS * n).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .covariance import make_covariance
from .covmodel import CovSpec
from .errors import InvalidSpec
from .estimators import check_fits, estimator_weights
from .partition import PartitionDesign

GENERATOR_NAME = "pcg64"
NORMAL_METHOD = "inverse-cdf"

BLOCK_TRIALS = 256
# Keys t < 2**32 are one uint32 word of spawn key, the case _spawn_states covers.
MAX_TRIALS = 1 << 32

# numpy's SeedSequence hash (O'Neill's seed_seq_fe, NEP 19), names as numpy's.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _spawn_states(seed: int, first: int, count: int) -> np.ndarray:
    """Rows SeedSequence(seed, spawn_key=(t,)).generate_state(4, np.uint64).

    One row per t in [first, first + count), for keys t < 2**32 (one uint32
    word).  SeedSequence(seed).pool is the spawned pool before the key word
    is mixed in, and the entropy hash has then run 16 + 4 * max(0, w - 4)
    steps for a seed of w uint32 words.  The running hash constant stays a
    Python int: numpy warns when two uint32 scalars overflow, not arrays.
    """
    words = max(1, -(-seed.bit_length() // 32))
    pool = np.random.SeedSequence(seed).pool
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 1 << 32) & _MASK32
    keys = np.arange(first, first + count, dtype=np.uint64).astype(np.uint32)
    mixed = np.empty((4, count), dtype=np.uint32)
    for i, word in enumerate(pool.tolist()):
        # mixed[i] = mix(pool[i], hashmix(key))
        value = keys ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> _XSHIFT
        value *= np.uint32(_MIX_MULT_R)
        np.subtract(np.uint32(_MIX_MULT_L * word & _MASK32), value, out=value)
        value ^= value >> _XSHIFT
        mixed[i] = value
    # generate_state(4, np.uint64): eight uint32 output words cycling the pool.
    state = np.empty((count, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for j in range(8):
        value = mixed[j % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> _XSHIFT
        state[:, j] = value
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SpawnedState(np.random.bit_generator.ISeedSequence):
    """A substream whose generate_state row _spawn_states already computed."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.state


def _trial_normals(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """Row i: n standard normals of substream SeedSequence(seed, spawn_key=(first + i,))."""
    words = np.empty((count, n), dtype=np.uint64)
    generator = np.random.PCG64
    for i, state in enumerate(_spawn_states(seed, first, count)):
        words[i] = generator(_SpawnedState(state)).random_raw(n)
    words >>= 11
    # u = (k + 0.5) / 2^53 lies strictly inside (0, 1), so ndtri never sees 0 or 1.
    u = words + 0.5
    u *= 2.0 ** -53
    return ndtri(u, out=u)


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

    Trial t's estimate is that of samples = design.mu_prime * d_true +
    L @ z_t with z_t drawn from its own substream; the empirical variance
    uses the unbiased (T - 1) normalization.
    """
    try:
        trials, seed = operator.index(trials), operator.index(seed)
    except TypeError:
        raise InvalidSpec(f"trials and seed must be integers, got {trials!r}, {seed!r}") from None
    # At least 2 for a variance, at most 2**32 for one-word spawn keys.
    if not 2 <= trials <= MAX_TRIALS:
        raise InvalidSpec(f"trials must lie in [2, 2**32], got {trials}")
    if seed < 0:
        raise InvalidSpec(f"seed must be >= 0, got {seed}")
    if not math.isfinite(d_true):
        raise InvalidSpec(f"d_true must be finite, got {d_true!r}")
    # Invalid inputs are reported before factoring can fail numerically.
    check_fits(estimator, spec, design)
    cov = make_covariance(spec)
    weights = estimator_weights(estimator, spec, design, cov)
    offset = float(weights @ (design.mu_prime * d_true))
    loading = cov.loading(weights)
    estimates = np.empty(trials)
    for first in range(0, trials, BLOCK_TRIALS):
        count = min(BLOCK_TRIALS, trials - first)
        z = _trial_normals(seed, first, count, spec.n)
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
