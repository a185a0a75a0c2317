"""Partition designs: which slot feeds which output channel, and with what
mean-shift coefficient.

A design assigns each of the n measurement slots to a channel and gives each
channel a coefficient (its weak value): slot i then has mean coefficient
mu_prime[i] = coefficient(channel(i)), so the expected sample is
mu_prime[i] * d.  ``make_design`` builds the five ``SCHEMES``:

* ``direct``       no partitioning: one channel, unit coefficient
* ``bernoulli``    each slot retained independently with probability gamma
* ``periodic``     slots at multiples of round(1/gamma) retained
* ``alternating``  odd slots +1, even slots -1 (sign-flipped signal)
* ``blocks``       first round(gamma*n) slots in channel 1, rest in channel 2

``check_seed`` is the one seed rule (an integer >= 0), for the bernoulli
draw here and for every seeded study and Monte Carlo run.  The two-state
overlap model ties an overlap angle phi to weak values and retention
probability:

    Aw = -cot(phi/2),  Awp = tan(phi/2),  gamma = sin^2(phi/2)

Without phi, postselect schemes take the idealized amplification convention
Aw = sqrt(1/gamma) (rejected channel coefficient 0), ``blocks`` the exact
overlap-model pair at the realized retained fraction, and ``alternating``
the pair (+1, -1).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec

SCHEME_BERNOULLI = "bernoulli"
SCHEME_PERIODIC = "periodic"
SCHEME_ALTERNATING = "alternating"
SCHEME_BLOCKS = "blocks"
SCHEME_DIRECT = "direct"
SCHEMES = (SCHEME_DIRECT, SCHEME_BERNOULLI, SCHEME_PERIODIC, SCHEME_ALTERNATING, SCHEME_BLOCKS)

CHANNEL_RETAINED = "retained"
CHANNEL_REJECTED = "rejected"
CHANNEL_PLUS = "plus"
CHANNEL_MINUS = "minus"


def check_seed(seed) -> int:
    """``seed`` as an int, or InvalidSpec unless it is an integer >= 0."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise InvalidSpec(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise InvalidSpec(f"seed must be >= 0, got {seed}")
    return seed


@dataclass(frozen=True)
class SpinModel:
    """Weak values and retention probability of one overlap angle phi in (0, pi)."""

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
    return SpinModel(aw=-cos_h / sin_h, awp=sin_h / cos_h, gamma=sin_h * sin_h)


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


def make_design(
    n: int,
    scheme: str,
    gamma: float | None = None,
    seed: int = 0,
    phi: float | None = None,
) -> PartitionDesign:
    """Build one of the five ``SCHEMES``; the one home of the scheme-parameter rule.

    gamma applies to bernoulli, periodic and blocks, and they need it.  phi
    gives the overlap pair (Aw, Awp) to the channels of every scheme but
    direct, and sets gamma = sin^2(phi/2) where gamma applies and is not
    given.  Any other gamma or phi is InvalidSpec.  ``seed`` only matters for
    the bernoulli scheme, where retention is drawn from the seeded
    deterministic generator (PCG64) so identical seeds give identical designs.
    """
    if scheme not in SCHEMES:
        raise InvalidSpec(f"unknown partition scheme {scheme!r}")
    if gamma is not None and scheme in (SCHEME_DIRECT, SCHEME_ALTERNATING):
        raise InvalidSpec(f"gamma does not apply to the {scheme} scheme")
    if scheme == SCHEME_DIRECT:
        if phi is not None:
            raise InvalidSpec("phi does not apply to the direct scheme")
        if n < 1:
            raise InvalidSpec("direct design requires n >= 1")
    elif n < 2:
        raise InvalidSpec("partition designs require n >= 2")
    coeffs = None
    if phi is not None:
        model = spin_model(phi)
        coeffs = (model.aw, model.awp)
        if gamma is None:
            gamma = model.gamma

    channels = (CHANNEL_RETAINED, CHANNEL_REJECTED)
    slots = np.arange(n)
    if scheme == SCHEME_DIRECT:
        channels, assignment, coeffs = channels[:1], np.zeros(n, dtype=np.intp), (1.0,)
    elif scheme == SCHEME_ALTERNATING:
        channels, assignment = (CHANNEL_PLUS, CHANNEL_MINUS), slots % 2
        coeffs = coeffs or (1.0, -1.0)
    else:
        if gamma is None or not 0.0 < gamma < 1.0:
            raise InvalidSpec(
                f"{scheme} scheme requires gamma strictly inside (0, 1), got {gamma}"
            )
        if scheme == SCHEME_BERNOULLI:
            rng = np.random.default_rng(np.random.SeedSequence(check_seed(seed)))
            retained = rng.random(n) < gamma
        elif scheme == SCHEME_PERIODIC:
            # Capped at n, where slot 0 alone is retained, so 1/gamma = inf cannot
            # overflow int(); gamma < 1 and n >= 2 keep the period at least 1.
            retained = slots % int(round(min(1.0 / gamma, n))) == 0
        else:
            n1 = int(round(gamma * n))
            if not 1 <= n1 <= n - 1:
                raise InvalidSpec(
                    f"gamma={gamma} leaves an empty channel for n={n} contiguous blocks"
                )
            retained = slots < n1
            # Coefficients at the realized fraction keep the layout an exact
            # overlap-model partition even when gamma*n is not an integer.
            coeffs = coeffs or spin_coefficients(n1 / n)
        assignment = np.where(retained, 0, 1)
        coeffs = coeffs or (math.sqrt(1.0 / gamma), 0.0)

    return PartitionDesign(n=n, scheme=scheme, channels=channels, assignment=assignment,
                           coefficients=np.asarray(coeffs, dtype=float))
