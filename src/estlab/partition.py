"""Partition designs: which slot feeds which output channel, and with what
mean-shift coefficient.

A design assigns each of the n measurement slots to a channel and gives each
channel a coefficient (its weak value): slot i then has mean coefficient
mu_prime[i] = coefficient(channel(i)), so the expected sample is
mu_prime[i] * d.  Four layouts are provided:

* ``bernoulli``    each slot retained independently with probability gamma
* ``periodic``     slots at multiples of round(1/gamma) retained
* ``alternating``  odd slots +1, even slots -1 (sign-flipped signal)
* ``blocks``       first round(gamma*n) slots in channel 1, rest in channel 2

plus ``direct_design`` for the no-partition baseline (one channel, unit
coefficient).  The two-state overlap model ties an overlap angle phi to
weak values and retention probability:

    Aw = -cot(phi/2),  Awp = tan(phi/2),  gamma = sin^2(phi/2)

Postselect schemes default to the idealized amplification convention
Aw = sqrt(1/gamma) (rejected channel coefficient 0); ``blocks`` defaults to
the exact overlap-model pair at the realized retained fraction.  Pass
``coefficients`` explicitly to use any other convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec

SCHEME_BERNOULLI = "bernoulli"
SCHEME_PERIODIC = "periodic"
SCHEME_ALTERNATING = "alternating"
SCHEME_BLOCKS = "blocks"
SCHEME_DIRECT = "direct"

CHANNEL_RETAINED = "retained"
CHANNEL_REJECTED = "rejected"
CHANNEL_PLUS = "plus"
CHANNEL_MINUS = "minus"


@dataclass(frozen=True)
class SpinModel:
    """Weak values and retention probability for overlap angle phi in (0, pi)."""

    phi: float
    aw: float
    awp: float
    gamma: float


def spin_model(phi: float) -> SpinModel:
    """Overlap-model weak values; Aw * Awp == -1 identically."""
    if not 0.0 < phi < math.pi:
        raise InvalidSpec(f"phi must lie strictly inside (0, pi), got {phi}")
    half = 0.5 * phi
    sin_h = math.sin(half)
    cos_h = math.cos(half)
    return SpinModel(
        phi=phi,
        aw=-cos_h / sin_h,
        awp=sin_h / cos_h,
        gamma=sin_h * sin_h,
    )


def spin_coefficients(gamma: float) -> tuple[float, float]:
    """(Aw, Awp) of the overlap model with retention probability gamma."""
    if not 0.0 < gamma < 1.0:
        raise InvalidSpec(f"gamma must lie strictly inside (0, 1), got {gamma}")
    return -math.sqrt((1.0 - gamma) / gamma), math.sqrt(gamma / (1.0 - gamma))


@dataclass(frozen=True)
class PartitionDesign:
    """Assignment of n slots to channels with per-channel coefficients."""

    n: int
    scheme: str
    channels: tuple[str, ...]
    assignment: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=np.intp)
        coefficients = np.asarray(self.coefficients, dtype=float)
        if assignment.shape != (self.n,):
            raise InvalidSpec("assignment must have one entry per slot")
        if coefficients.shape != (len(self.channels),):
            raise InvalidSpec("one coefficient per channel required")
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= len(self.channels)
        ):
            raise InvalidSpec("slot assigned to a nonexistent channel")
        assignment.setflags(write=False)
        coefficients.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def mu_prime(self) -> np.ndarray:
        """Per-slot mean-shift coefficients (the derivative of the mean in d)."""
        return self.coefficients[self.assignment]

    def channel_slots(self, name: str) -> np.ndarray:
        """Indices of the slots assigned to the named channel."""
        return np.flatnonzero(self.assignment == self.channels.index(name))

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.channels.index(name)])

    def digest(self) -> str:
        pairs = ",".join(
            f"{name}:{float(coef)!r}"
            for name, coef in zip(self.channels, self.coefficients)
        )
        return f"scheme={self.scheme} n={self.n} channels={pairs}"


def direct_design(n: int) -> PartitionDesign:
    """No partitioning: every slot retained with unit coefficient."""
    if n < 1:
        raise InvalidSpec("direct design requires n >= 1")
    return PartitionDesign(
        n=n,
        scheme=SCHEME_DIRECT,
        channels=(CHANNEL_RETAINED,),
        assignment=np.zeros(n, dtype=np.intp),
        coefficients=np.array([1.0]),
    )


def make_design(
    n: int,
    scheme: str,
    gamma: float | None = None,
    seed: int = 0,
    coefficients: tuple[float, float] | None = None,
) -> PartitionDesign:
    """Build one of the named two-channel layouts.

    ``seed`` only matters for the bernoulli scheme, where retention is drawn
    from the seeded deterministic generator (PCG64) so identical seeds give
    identical designs.
    """
    if n < 2:
        raise InvalidSpec("partition designs require n >= 2")

    if scheme == SCHEME_ALTERNATING:
        assignment = (np.arange(n) % 2).astype(np.intp)
        coeffs = coefficients if coefficients is not None else (1.0, -1.0)
        return PartitionDesign(
            n=n,
            scheme=scheme,
            channels=(CHANNEL_PLUS, CHANNEL_MINUS),
            assignment=assignment,
            coefficients=np.asarray(coeffs, dtype=float),
        )

    if scheme not in (SCHEME_BERNOULLI, SCHEME_PERIODIC, SCHEME_BLOCKS):
        raise InvalidSpec(f"unknown partition scheme {scheme!r}")
    if gamma is None or not 0.0 < gamma < 1.0:
        raise InvalidSpec(
            f"{scheme} scheme requires gamma strictly inside (0, 1), got {gamma}"
        )

    if scheme == SCHEME_BERNOULLI:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        retained_mask = rng.random(n) < gamma
        assignment = np.where(retained_mask, 0, 1).astype(np.intp)
    elif scheme == SCHEME_PERIODIC:
        # Any period >= n retains slot 0 alone; capping keeps a tiny gamma
        # (1/gamma = inf) from overflowing int().
        period = int(round(min(1.0 / gamma, n)))
        if period < 1:
            raise InvalidSpec(f"gamma={gamma} gives an empty retention period")
        assignment = np.where(np.arange(n) % period == 0, 0, 1).astype(np.intp)
    else:
        n1 = int(round(gamma * n))
        if not 1 <= n1 <= n - 1:
            raise InvalidSpec(
                f"gamma={gamma} leaves an empty channel for n={n} contiguous blocks"
            )
        assignment = np.where(np.arange(n) < n1, 0, 1).astype(np.intp)

    if coefficients is None:
        if scheme == SCHEME_BLOCKS:
            # Coefficients at the realized fraction keep the layout an exact
            # overlap-model partition even when gamma*n is not an integer.
            realized = assignment.tolist().count(0) / n
            coeffs = spin_coefficients(realized)
        else:
            coeffs = (math.sqrt(1.0 / gamma), 0.0)
    else:
        coeffs = coefficients

    return PartitionDesign(
        n=n,
        scheme=scheme,
        channels=(CHANNEL_RETAINED, CHANNEL_REJECTED),
        assignment=assignment,
        coefficients=np.asarray(coeffs, dtype=float),
    )


def subset_index(retained, dim: int) -> np.ndarray:
    """Validated retained slots: a non-empty, strictly increasing index vector."""
    idx = np.asarray(retained, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise InvalidSpec("retained index set must be a non-empty vector")
    if (np.diff(idx) <= 0).any():
        raise InvalidSpec("retained indices must be strictly increasing")
    if idx[0] < 0 or idx[-1] >= dim:
        raise InvalidSpec(f"retained indices must lie in [0, {dim - 1}]")
    return idx

