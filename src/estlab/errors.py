"""Exception hierarchy shared by all estlab modules.

Every input rule the library checks raises InvalidSpec.  The CLI exits 5 on
a NumericFailure and 3 on any other EstlabError.  ``finite_positive`` is the
one rule for a result: valid inputs whose result is not a finite positive
float raise InvalidSpectrum.
"""

import math

import numpy as np


class EstlabError(Exception):
    """Base class for every error raised by this package.

    An EstlabError that is not a NumericFailure means the inputs are invalid.
    """


class NumericFailure(EstlabError):
    """The inputs are valid, but computing with them failed."""


class NotPositiveDefinite(NumericFailure):
    """A covariance matrix has a zero or negative variance direction."""


class InvalidSpec(EstlabError):
    """An input violates one of the library's rules."""


class InvalidSpectrum(NumericFailure):
    """An eigenvalue/weight spectrum is inconsistent or non-positive."""


def finite_positive(name: str, values):
    """``values``, or InvalidSpectrum naming the first entry that is not a finite positive float."""
    array = np.asarray(values)
    bad = ~((0.0 < array) & (array < math.inf))
    if bad.any():
        raise InvalidSpectrum(f"{name} = {array[bad][0].item()!r} is not a finite positive float")
    return values
