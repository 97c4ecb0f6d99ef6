"""Exception types shared across the library, the one rule every prox
weight, dual shift and tolerance obeys (require_positive), the one every
config scalar obeys (require_real), and the one every iteration count
obeys (require_count)."""

import math
import numbers


class BalmError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(BalmError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(BalmError):
    """A matrix required to be positive definite failed its pivot test."""


class NoConvergence(BalmError):
    """An iterative routine hit its iteration cap before its tolerance."""


class InnerNoConvergence(NoConvergence):
    """An inner subproblem solver hit its iteration cap."""


class UnsupportedObjective(BalmError):
    """No closed-form proximity rule is available for this objective."""


class UnsupportedCombination(BalmError):
    """This objective/set pairing has no supported subproblem rule."""


class ConfigInvalid(BalmError):
    """A solver configuration violates its validity conditions."""


class InsufficientHistory(BalmError):
    """A run history is too short for the requested computation."""


class MissingReference(BalmError):
    """A reference solution is required but was not supplied."""


class InvalidDims(BalmError):
    """Requested instance dimensions are not realizable."""


class SchemaError(BalmError):
    """A problem or history file does not match the expected layout."""


def require_real(error: type, **values) -> None:
    """Raise error, in require_positive's words, naming the first of values
    that is not one real number: a bool, a str or a list fails.  A config
    checks each scalar field by it, since require_positive reads a list
    entry by entry."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise error(f"{name} = {value} must be a finite positive number")


def require_positive(error: type, **values) -> None:
    """Raise error naming the first of values that is not a finite number
    above zero: nan and +-inf fail like zero and below, and so does a
    value that is not a real number, a bool or a str.  A tuple or list
    value is checked entry by entry, each named name[i]."""
    for name, value in values.items():
        if isinstance(value, (tuple, list)):
            require_positive(error, **{f"{name}[{i}]": v for i, v in enumerate(value)})
        elif isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
            raise error(f"{name} = {value} must be a finite positive number")


def require_count(error: type, **values) -> None:
    """Raise error naming the first of values that is not an integer of at
    least 1: a float (2.5, nan, even 2.0) or a bool fails, a numpy integer
    passes."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise error(f"{name} must be at least 1 and an integer, not {value!r}")
