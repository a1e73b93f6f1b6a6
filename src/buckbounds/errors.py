"""Exception hierarchy shared by the library and the command line front end.

The input checks that every module shares live here too, next to the
``InvalidParameterError`` they raise: ``_require_int`` for integer arguments,
``_converted`` for a conversion to float, ``_require_positive_floats``
with its scalar form ``_require_positive`` for positive finite reals, and
``_require_path`` for a file path.  A
message shows a refused value through ``_shown``, which names its type where
its ``repr`` cannot be built.
"""

import os
from math import inf

# _require_int refuses an integer this large in magnitude before formatting
# it: str() raises ValueError past sys.get_int_max_str_digits() digits.
_INT_LIMIT = 2**63


class BuckBoundsError(Exception):
    """Base class for every error raised deliberately by this package."""


class InvalidParameterError(BuckBoundsError, ValueError):
    """An argument is outside the documented domain of an operation."""


class SpectrumFormatError(BuckBoundsError, ValueError):
    """A spectrum file or text block does not follow the expected format."""


class DomainViolationError(BuckBoundsError, ValueError):
    """An eigenvalue violates the admissibility condition lam**(1/(l-1)) > n - 2."""


class InfeasibleSpectrumError(BuckBoundsError, ValueError):
    """The input values cannot be the leading eigenvalues of any admissible spectrum."""


class InternalConsistencyError(BuckBoundsError):
    """A structural invariant that should hold by construction was violated."""


class NumericalError(BuckBoundsError):
    """A numerical procedure failed to produce a trustworthy result."""


class NotPositiveDefiniteError(NumericalError):
    """Cholesky factorization met a nonpositive pivot.

    The attribute ``index`` records the failing pivot position and ``pivot``
    its value.
    """

    def __init__(self, message, index, pivot):
        super().__init__(message)
        self.index = index
        self.pivot = pivot


class ConvergenceError(NumericalError):
    """An iterative eigenvalue or root computation did not converge."""


class BracketError(NumericalError):
    """Root bracketing failed within the allowed expansion range."""


def _require_int(value, name, minimum):
    # type() is bool matches isinstance(value, bool), as bool has no
    # subclasses, and costs less: chain_bounds makes five checks a step
    if type(value) is bool or not isinstance(value, int):
        raise InvalidParameterError(f"{name} must be an integer, got {_shown(value)}")
    if value < minimum or value >= _INT_LIMIT:
        if abs(value) >= _INT_LIMIT:
            raise InvalidParameterError(f"{name} must be below 2**63 in magnitude")
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value}")


def _shown(value):
    # repr(value) for a message, or its type where repr raises ValueError, as
    # it does for an integer, or a Fraction, past sys.get_int_max_str_digits()
    # digits
    try:
        return repr(value)
    except ValueError:
        return f"a value of type {type(value).__name__} that cannot be printed"


def _converted(convert, value, name):
    # convert(value), with what float() raises on a non-number, and on an
    # integer past the float range, raised as InvalidParameterError
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(f"{name} must be numeric and within the float range") from None


def _require_positive_floats(values, name):
    # values as a tuple of floats, each finite and > 0
    values = _converted(lambda items: tuple(map(float, items)), values, name)
    for v in values:
        if not 0.0 < v < inf:  # NaN fails too
            raise InvalidParameterError(f"{name} must be positive finite, got {v}")
    return values


def _require_positive(value, name):
    # _require_positive_floats of one value, without the tuple that would
    # cost five times the check: s_term and h_term check every eigenvalue
    # of a spherical solve
    value = _converted(float, value, name)
    if not 0.0 < value < inf:
        raise InvalidParameterError(f"{name} must be positive finite, got {value}")
    return value


def _require_path(path):
    # open() takes an integer as a file descriptor and closes it on exit, so
    # only a str, bytes or os.PathLike path reaches it.
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise InvalidParameterError(
            f"path must be a str, bytes or os.PathLike, got {type(path).__name__}"
        )
