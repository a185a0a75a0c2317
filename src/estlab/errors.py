"""Exception hierarchy shared by all estlab modules."""


class EstlabError(Exception):
    """Base class for every error raised by this package.

    An EstlabError that is not a NumericFailure means the inputs are invalid.
    """


class NumericFailure(EstlabError):
    """The inputs are valid, but computing with them failed."""


class DimensionMismatch(EstlabError):
    """Operands have incompatible shapes or lengths."""


class NotPositiveDefinite(NumericFailure):
    """A covariance matrix has a zero or negative variance direction."""


class InvalidSpec(EstlabError):
    """A model specification violates its parameter constraints."""


class InvalidSpectrum(NumericFailure):
    """An eigenvalue/weight spectrum is inconsistent or non-positive."""


class SingularCovariance(EstlabError):
    """Two outcomes are perfectly correlated; information diverges."""


class DegenerateDenominator(EstlabError):
    """Optimal weighting is undefined because its denominator vanishes."""


class OutOfDomain(EstlabError):
    """A parameter lies outside its mathematical domain."""


class InvalidGamma(EstlabError):
    """A retention probability cannot produce a usable partition."""


class IndexOutOfRange(EstlabError):
    """Selection indices are not strictly increasing within range."""


class WrongDesign(EstlabError):
    """An estimator was applied to a partition design it does not fit."""


class EmptyRetainedSet(EstlabError):
    """Post-selection retained no measurement slots."""
