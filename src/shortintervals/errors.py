"""Exception types shared across the package."""


class ShortIntervalsError(Exception):
    """Base class for all errors raised by this package."""


class OutOfDomain(ShortIntervalsError):
    """A sigma or theta argument lies outside the domain of the object."""


class DomainMismatch(ShortIntervalsError):
    """Two piecewise bounds do not cover the same sigma range."""


class DenominatorVanishes(ShortIntervalsError):
    """A rational function's denominator may vanish on the given interval."""


class NonConvergence(ShortIntervalsError):
    """A certified bracket cannot be made as narrow as the requested tolerance."""


class InvalidFamilyIndex(ShortIntervalsError):
    """A family index below the family's first member, or a table cap index
    that would end the tables before their finite rows do."""


class MixedSurds(ShortIntervalsError, ValueError):
    """Arithmetic combines two quadratic surds of distinct fields Q(sqrt(r))."""


class OutOfRange(ShortIntervalsError):
    """A numeric argument exceeds the range covered by a sieve or dataset."""


class LimitTooLarge(ShortIntervalsError):
    """Requested sieve limit exceeds the configured memory guard."""


class TooManyZeros(ShortIntervalsError):
    """Too many ordinates below T for the quadratic-time energy count."""


class InsufficientZeros(ShortIntervalsError):
    """The zero dataset does not reach the requested height T."""


class ParseError(ShortIntervalsError):
    """Malformed numeric input or dataset line."""


class OrderError(ShortIntervalsError):
    """Zero ordinates in a dataset file are not strictly ascending."""
