"""Exception hierarchy shared by the library and the command line front end.

The input checks that every module shares live here too, next to the
``InvalidParameterError`` they raise: ``_require_int`` for integer arguments,
``_converted`` for a conversion, ``_real`` for a conversion to float that
refuses complex numbers, ``_require_positive_floats`` for positive finite
reals (a str or bytes is refused, not read as characters), ``_collected``
for an iterable argument, ``_require_type`` for an argument of a package
type, and ``_require_path`` for a file path.  A message shows a refused
value through ``_shown``, which names its type where its ``repr`` cannot be
built.  ``_finite_sum`` is the one float-range rule of the sums that
``bounds`` and ``polyrec`` must keep finite: a sum that leaves the float
range raises ``NumericalError``.

In ``bounds`` and ``polyrec`` these checks run at the boundary: a public
function checks and converts each argument once, at its entry, and then
hands plain floats and ints to private kernels, which call no public
function, check nothing again and raise only ``NumericalError`` (with its
subclasses), ``InfeasibleSpectrumError`` and ``InternalConsistencyError``.
Each rule of the spherical terms is checked in one place too:
``polyrec._root_gaps`` is the one admissibility check lam**(1/(l-1)) > n - 2,
which ``s_term`` makes on its eigenvalue and the spherical functions of
``bounds`` on their prefix, and ``polyrec._require_order`` is the one cap on
the order l of the terms built from phi_{l-1}, which ``_root_gaps``,
``extract_a_coefficients`` and ``h_term`` share.
``galerkin``, ``eigen`` and ``verify`` keep five double checks, each on a
call that perfbench's tracer wraps by its module attribute, so each stays
until the tracer is keyed by code object instead (ROADMAP item 25):

- ``solve_buckling`` checks its request, and ``assemble_forms`` checks the
  domain, l and m again;
- ``solve_buckling``'s ladder callers, ``convergence_study`` and
  ``run_verification``, check the finest rung's request before
  ``solve_buckling`` checks it again;
- ``cholesky_spd`` checks again the matrices that ``solve_buckling`` and
  the solver hand it, three calls a whole solve;
- ``check_theorem11`` calls the four public evaluators, which check again
  the spectrum, k and candidate it has checked;
- ``_assemble`` calls ``derivative_integral_table``, which checks again the
  basis and the orders it builds.

The package's eleven records (``Spectrum``, ``BoundReport``, ``Domain`` and
the rest) derive from ``_Record`` here and are not built with ``@dataclass``,
so that the light CLI commands start faster.  The dataclass module loads
``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``), and
``@dataclass`` builds each class's methods from generated source when the
class is made.  On a shared 2-vCPU host with Python 3.11, importing the
dataclass module took 6.4 ms, and the five records of ``bounds`` and
``polyrec`` took about 3 ms more.  With ``fractions`` loaded beforehand,
``import buckbounds`` took 11.2 ms with ``@dataclass`` records and 1.6 ms
with ``_Record``; these are medians of 21 fresh processes.

A record names each field once, as a positional parameter of its own
explicit ``__init__``: ``_Record`` derives the class's ``_fields`` from that
signature.  The ``__init__`` checks and converts its arguments, then ends in
``self._store(locals())``, which stores each field once, in ``_fields``
order.  A generic ``*args, **kwargs`` init that maps the arguments onto
``_fields`` took 5.4 us to build a 3-value ``Spectrum``, against 3.6 us,
and it would hide the signature.
"""

import os
from math import fsum, inf
from numbers import Complex, Real
from operator import attrgetter

# _require_int refuses an integer this large in magnitude before formatting
# it: str() raises ValueError past sys.get_int_max_str_digits() digits.
_INT_LIMIT = 2**63


class _Record:
    """Base of a frozen record, with the behaviour of a frozen dataclass.

    A record's fields are the positional parameters of its own ``__init__``,
    in order, which ``__init_subclass__`` reads into ``_fields``; the
    ``__init__`` ends in ``self._store(locals())``.  ``==`` and ``hash`` read
    the fields not named in ``_uncompared`` and ``repr`` those not named in
    ``_unshown``; equality needs the same class.  Assignment and deletion
    raise ``AttributeError``.  Instances keep a ``__dict__``, so pickle and
    deepcopy restore them without calling ``__init__``.
    """

    _uncompared = ()
    _unshown = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        compared = [f for f in cls._fields if f not in cls._uncompared]
        # _key(record) is the tuple of the compared fields: attrgetter returns
        # that tuple for two or more names, and the bare value for one.
        get = attrgetter(*compared)
        cls._key = staticmethod(get if len(compared) > 1 else lambda record: (get(record),))
        cls._shown = tuple(f for f in cls._fields if f not in cls._unshown)

    def _store(self, arguments):
        # Each field's value from the locals() of __init__, in _fields order.
        stored = self.__dict__
        for f in self._fields:
            stored[f] = arguments[f]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self):
        # The fields by name, in _fields order.
        return {f: getattr(self, f) for f in self._fields}


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
    if isinstance(value, bool) or not isinstance(value, int):
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


def _real(value):
    # float(value), which raises TypeError on a complex number: float()
    # refuses a Python complex but keeps only the real part of a numpy
    # complex scalar, with a ComplexWarning
    if type(value) is not float and isinstance(value, Complex) and not isinstance(value, Real):
        raise TypeError(f"{type(value).__name__} is not a real number")
    return float(value)


def _require_positive_floats(values, name):
    # values as a tuple of floats, each real, finite and > 0.  A str or bytes
    # is refused: it iterates as characters, which float() reads as digits,
    # or as byte values.
    if isinstance(values, (str, bytes, bytearray)):
        raise InvalidParameterError(f"{name} must be numbers, not a {type(values).__name__}")
    values = _converted(lambda items: tuple(map(_real, items)), values, name)
    for v in values:
        if not 0.0 < v < inf:  # NaN fails too
            raise InvalidParameterError(f"{name} must be positive finite, got {v}")
    return values


def _collected(collect, values, name, items):
    # collect(values), such as list(values), with the TypeError of a value
    # that is not iterable, or of an item that a set cannot hold, raised as
    # InvalidParameterError
    try:
        return collect(values)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an iterable of {items}") from None


def _require_type(value, kind, name):
    if not isinstance(value, kind):
        raise InvalidParameterError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _require_path(path):
    # open() takes an integer as a file descriptor and closes it on exit, so
    # only a str, bytes or os.PathLike path reaches it.
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise InvalidParameterError(
            f"path must be a str, bytes or os.PathLike, got {type(path).__name__}"
        )


def _finite_sum(describe, first, *rest):
    # The fsum of each part, added in order, or NumericalError(describe())
    # where fsum raises or the total is not finite.  fsum raises OverflowError
    # on a finite sum past the float range and on an integer too large for a
    # float, ValueError on inf - inf, and a term's own ZeroDivisionError
    # passes through it.  describe is called only on failure.
    try:
        total = fsum(first)
        for part in rest:
            total += fsum(part)
    except (OverflowError, ValueError, ZeroDivisionError):
        raise NumericalError(describe()) from None
    if not -inf < total < inf:  # NaN fails too
        raise NumericalError(describe())
    return total
