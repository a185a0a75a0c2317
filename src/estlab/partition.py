"""Partition designs: which slot feeds which of two channels, and with what
mean-shift coefficient.

A design assigns each of the n measurement slots to channel 0 (retained, or
plus) or channel 1 (rejected, or minus), with coefficients (weak values) Aw
and Awp: slot i has mean coefficient mu_prime[i], Aw in channel 0 and Awp in
channel 1, so the expected sample is mu_prime[i] * d.  ``make_design``
builds the five ``SCHEMES``:

* ``direct``       no partitioning: channel 0 only, unit coefficient
* ``bernoulli``    each slot retained independently with probability gamma
* ``periodic``     slots at multiples of round(1/gamma) retained
* ``alternating``  odd slots +1, even slots -1 (sign-flipped signal)
* ``blocks``       first round(gamma*n) slots in channel 0, rest in channel 1

``check_seed`` is the one seed rule (an integer >= 0), for the bernoulli
draw here and for every seeded study and Monte Carlo run.  make_design and
the studies share ``blocks_layout``, ``periodic_retained`` and
``bernoulli_retained``.  The two-state
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
    """Weak values and retention probability of an overlap angle phi in (0, pi), or arrays."""

    aw: float
    awp: float
    gamma: float


def check_inside(name: str, values, hi: float, hi_name: str) -> np.ndarray:
    """``values`` as a float array, or InvalidSpec naming the first entry outside (0, hi)."""
    values = np.asarray(values, dtype=float)
    bad = ~((0.0 < values) & (values < hi))
    if bad.any():
        raise InvalidSpec(f"{name} must lie strictly inside (0, {hi_name}), got {values[bad][0]}")
    return values


def as_floats(*arrays) -> tuple:
    """Each array, or its float where it has no axes: a scalar input gives floats."""
    return tuple(float(x) if np.ndim(x) == 0 else x for x in arrays)


# Near phi = 0 or gamma = 0, Aw overflows to -inf for its readers' rules to reject.
@np.errstate(divide="ignore", over="ignore")
def spin_model(phi) -> SpinModel:
    """Overlap-model weak values; Aw * Awp == -1 identically.  phi may be an array."""
    half = 0.5 * check_inside("phi", phi, math.pi, "pi")
    # numpy's float64 sin and cos round as math's do; the tests hold them to it.
    sin_h, cos_h = np.sin(half), np.cos(half)
    return SpinModel(*as_floats(-cos_h / sin_h, sin_h / cos_h, sin_h * sin_h))


@np.errstate(divide="ignore", over="ignore")
def spin_coefficients(gamma) -> tuple:
    """(Aw, Awp) of the overlap model with retention probability gamma, which may be an array."""
    gamma = check_inside("gamma", gamma, 1.0, "1")
    return as_floats(-np.sqrt((1.0 - gamma) / gamma), np.sqrt(gamma / (1.0 - gamma)))


def blocks_layout(n: int, n1) -> tuple[np.ndarray, tuple]:
    """(retained, (Aw, Awp)): the first n1 of n slots retained, and the overlap pair
    at the realized fraction n1/n, so the layout is an exact overlap-model partition
    whatever gamma*n is.  An array n1 gives one column of ``retained`` per entry."""
    return np.less.outer(np.arange(n), n1), spin_coefficients(n1 / n)


def periodic_retained(n: int, gamma: float) -> np.ndarray:
    """Periodic retention: slot i is kept where i is a multiple of round(1/gamma).

    The period is capped at n, where slot 0 alone is kept, so 1/gamma = inf
    cannot overflow int(); 0 < gamma < 1 keeps it at least 1.
    """
    return np.arange(n) % int(round(min(1.0 / gamma, n))) == 0


def bernoulli_retained(n: int, gamma: float, seed: int) -> np.ndarray:
    """Bernoulli retention of a checked ``seed``: slot i is kept where draw i of the
    seeded generator, PCG64 of SeedSequence(seed), falls below gamma."""
    return np.random.default_rng(np.random.SeedSequence(seed)).random(n) < gamma


@dataclass(frozen=True)
class PartitionDesign:
    """Each slot's channel, 0 or 1 in a read-only ``assignment``, and the
    coefficients (aw, awp) of the two channels."""

    scheme: str
    assignment: np.ndarray = field(repr=False)
    aw: float
    awp: float

    @property
    def n(self) -> int:
        return self.assignment.size

    @property
    def mu_prime(self) -> np.ndarray:
        """Per-slot mean-shift coefficients (the derivative of the mean in d)."""
        return np.array([self.aw, self.awp])[self.assignment]

    @property
    def retained(self) -> np.ndarray:
        """Indices of the channel-0 slots: retained, or plus."""
        return np.flatnonzero(self.assignment == 0)


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

    slots = np.arange(n)
    if scheme == SCHEME_DIRECT:
        assignment, coeffs = np.zeros(n, dtype=np.intp), (1.0, 1.0)
    elif scheme == SCHEME_ALTERNATING:
        assignment = slots % 2
        coeffs = coeffs or (1.0, -1.0)
    else:
        if gamma is None or not 0.0 < gamma < 1.0:
            raise InvalidSpec(
                f"{scheme} scheme requires gamma strictly inside (0, 1), got {gamma}"
            )
        if scheme == SCHEME_BERNOULLI:
            retained = bernoulli_retained(n, gamma, check_seed(seed))
        elif scheme == SCHEME_PERIODIC:
            retained = periodic_retained(n, gamma)
        else:
            n1 = int(round(gamma * n))
            if not 1 <= n1 <= n - 1:
                raise InvalidSpec(
                    f"gamma={gamma} leaves an empty channel for n={n} contiguous blocks"
                )
            retained, pair = blocks_layout(n, n1)
            coeffs = coeffs or pair
        assignment = np.where(retained, 0, 1)
        coeffs = coeffs or (math.sqrt(1.0 / gamma), 0.0)
    aw, awp = map(float, coeffs)
    if not math.isfinite(aw) or not math.isfinite(awp):  # Aw, at a subnormal phi or gamma
        raise InvalidSpec(f"the coefficients must be finite, got {aw!r}, {awp!r}")
    assignment.setflags(write=False)
    return PartitionDesign(scheme, assignment, aw, awp)
