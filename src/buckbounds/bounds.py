"""Universal gap inequalities for clamped buckling spectra and their bound solvers.

A Spectrum carries ascending positive eigenvalues plus the dimension n and
order l it belongs to.  Evaluators score one inequality at one candidate for
the next eigenvalue and report lhs, rhs, and the satisfaction margin; solvers
turn an inequality into the largest admissible candidate.  Weight sequences
delta must be positive and non-increasing; ``optimize_delta`` produces the
minimizing one by pool-adjacent-violators.

The Euclidean inequalities (thm11, its square-root form eq112 and the
quadratic corollary cor11, whose form the order-2 priors prior16 and prior18
share) are homogeneous of degree 2 in the eigenvalues, so their evaluators
and solvers work in power-of-two units.  The shift
2 (l-1) w is chosen to bring the candidate, or eigenvalue k for a solver,
near 1.  The prefix, the candidate and the gaps g then carry 2**shift, the
heavy powers h = lam**((l-2)/(l-1)) carry 4**((l-2) w), the light powers
c = lam**(1/(l-1)) carry 4**w, and delta carries 4**(-(l-2) w); the powers
are taken of the raw eigenvalues and scaled by ``ldexp``.  Every term of
every side (g**2, g lam, delta g**2 h, g c / delta) then carries exactly
4**shift, and so does eq112's sqrt(sum g**2 h) sqrt(sum g c), whose factors
carry even powers of two.  A power of two is exact, so every result keeps
the bits of the raw evaluation wherever that stays in the float range, and
far from 1 in scale nothing overflows in units: a report is decided in
units and scaled back by 4**-shift, a side past the float range becoming
+-inf, and the minimizing delta is scaled back by 4**((l-2) w).  Only
thm11's rhs can overflow in units alone, when delta is far from its natural
scale; its report then keeps the verdict and, where the rhs is finite at raw
scale, gives the rhs, residual and tolerance there.

A public function here is the boundary: it checks and converts each
argument once, at its entry (``_check_k`` and ``_check_candidate`` hand back
the prefix, n, l and the candidate as plain floats and ints), and then calls
private kernels, which never call a public function and raise only
``NumericalError``, ``InfeasibleSpectrumError``, ``BracketError`` and
``InternalConsistencyError``.  ``chain_bounds`` loops the cor11 or sharp
kernel over one growing float list, which is a checked prefix at every
step, and the spherical functions check their prefix with the one
admissibility check of ``polyrec`` and read their s_terms from its kernel.

One float-range rule holds for every public function here and for the
spherical terms of ``polyrec``: a report side may read +-inf, and every
other number returned (a bound, a delta, an objective, a spherical term) is
finite, or the call raises ``NumericalError``.  ``errors._finite_sum`` is
that rule for each sum that must stay finite.

Every inequality here is decided by one relative rule, ``_holds``:
lhs - rhs <= 1e-9 max(|lhs|, |rhs|), so no verdict depends on the scale
of the spectrum.  Every evaluator's report reads it, and so does every
solver's check of its own form at eigenvalue k.  With a zero last gap the
sides there are the (k-1)-th inequality at candidate lam_k, which every
buckling spectrum satisfies, so a prefix that fails it raises
``InfeasibleSpectrumError``, where ``eval_eq112`` or ``eval_cor11`` at
lam_k reports the same inequality unsatisfied.  For cor11 the sides are
the terms of its quadratic at x = lam_k, k x**2 + (1 + C) S2 and
(2 + C) S1 x, whose difference is that of ``eval_cor11``'s sides; this
puts lam_k between its roots without computing the smaller one.

The sharp and spherical solvers lay a geometric probe grid from eigenvalue k
to just past a limit that their own inequality puts on every feasible
candidate, walk it down from the top probe to the first sign change met,
which is the last one on the grid, and bisect it; no probe below that sign
change is evaluated.  ``BracketError`` means no sign change below the limit.

Both limits follow from one rule.  For x >= eigenvalue k write x = lam_k + y;
the gaps are g = y + e with e = lam_k - lam >= 0.  If every feasible
candidate has sum g**2 <= sum g u for some u >= 0, then
sum g**2 >= (sum g)**2 / k gives y <= max(u) - mean(e), and y is at most the
largest root of k y**2 - (sum u - 2 sum e) y + sum e (e - u) when that
quadratic has a real root; ``_scan_limit`` returns lam_k plus the smaller.
For the sharp form u = C lam with C = 4 coeff / n**2, which is cor11: the
gaps are nonincreasing along the prefix, while h = lam**((l-2)/(l-1)) and
c = lam**(1/(l-1)) are nondecreasing with h c = lam, so the Chebyshev pairing

    sum g**2 sum g lam - sum g**2 h sum g c
        = 1/2 sum_ij g_i g_j (h_j - h_i)(g_i c_j - g_j c_i) >= 0

turns n sum g**2 <= 2 sqrt(coeff) sqrt(sum g**2 h) sqrt(sum g c) into
n sum g**2 <= 2 sqrt(coeff) sqrt(sum g**2) sqrt(sum g lam).  The spherical
lhs weights are at least 2 and its optimized rhs is at most the constant-delta
value 2 sqrt(sum g**2 s sum g c), so u = s c by the same pairing when the
s_terms are nondecreasing along the prefix, u = max(s) c otherwise.

The sharp solver decides each probe and bisection sign in O(1) and proves
it equal to the sign of the fsum loop, which stays as the referee.  In the
units, with d = lam_k - lam >= 0 and y = x - lam_k >= 0,

    sum g**2 = k y**2 + 2 y D1 + D2,  sum g**2 h = H0 y**2 + 2 y HD1 + HD2,
    sum g c = C0 y + CD1,

where D1 = sum d, D2 = sum d**2, H0 = sum h, HD1 = sum h d, HD2 = sum h d**2,
C0 = sum c and CD1 = sum c d are fsums taken once per solve.  Every term is
nonnegative, so nothing cancels.  With u = 2**-53, gamma_j = j u / (1 - j u),
and every operation, sqrt and fsum rounding once, count the roundings of y,
d, each product and each sum: the computed S = sum g**2, sum g**2 h and
sum g c carry relative errors below gamma_6, gamma_7 and gamma_4 (the loop's
below gamma_4, gamma_5 and gamma_3), and R = scale sqrt(sum g**2 h)
sqrt(sum g c) below gamma_11 (the loop's below gamma_9).  So both the fast
value S - R and the loop's value lie within gamma_12 (S* + R*) of the exact
shortfall S* - R* with the same float h, c and scale, one unit of gamma_12
covering underflow (below).  The fast value f is returned when |f| > 2**-48 (S + R),
and 2**-48 = 32 u exceeds 2 gamma_12 / ((1 - u) (1 - gamma_12)), so then
|S* - R*| > gamma_12 (S* + R*) and the loop has the same sign, which is all
``_largest_root`` reads: every bound stays bit-identical.  Otherwise the
loop runs.  It also runs where S + R + sum g**2 h + sum g c exceeds 2**1000,
which keeps every loop sum finite, and where a sum falls below the floor
2**-1018 k (2 + max h) (1 + y): a product that underflows errs by at most
2**-1075, later factors scale that by less than 2 k (2 + max h + y) per sum,
and above the floor the total stays below u / 8 of the sum.
"""

import math
import re
import sys
from bisect import bisect_left
from functools import lru_cache
from operator import mul, sub, truediv

from .errors import (
    BracketError,
    InfeasibleSpectrumError,
    InternalConsistencyError,
    InvalidParameterError,
    NumericalError,
    SpectrumFormatError,
    _converted,
    _finite_sum,
    _Record,
    _real,
    _require_int,
    _require_path,
    _require_positive_floats,
    _require_type,
    _shown,
)
# s_term is imported only for perfbench's tracer, which replaces bounds.s_term
from .polyrec import _root_gaps, _s_term, s_term  # noqa: F401

RESIDUAL_TOLERANCE = 1e-9
PROBES_PER_DOUBLING = 16
BISECT_RELATIVE = 1e-13
# The sharp solver's sign certificate (module docstring): a fast shortfall
# decides its sign when it exceeds this share of its two sides' sum and its
# sums stay below the cap.
_SHARP_MARGIN = 2.0**-48
_SHARP_SIZE_CAP = 2.0**1000

_PROVENANCES = ("computed", "synthetic", "file")
_HEADER_RE = re.compile(r"^#\s*n=(\d+)\s+l=(\d+)\s*$")


def euclidean_coefficient(n, l):
    """Exact rational 2 l**2 + (n - 14/3) l + 8/3 - n; strictly positive.

    It factors as (l - 1)(3n + 6l - 8) / 3, which is at least 10/3 for
    n, l >= 2, so the square-root bound may divide by it.  At l = 2 this
    collapses to n + 4/3.
    """
    _require_int(n, "n", 2)
    _require_int(l, "l", 2)
    # fractions is imported here, by the only function that needs the exact
    # value, so that the bound commands of the CLI start without it.
    from fractions import Fraction

    return Fraction((l - 1) * (3 * n + 6 * l - 8), 3)


def _coefficient(n, l):
    # The coefficient as a float, for validated integers: int true division
    # rounds the exact quotient once, so this is float(euclidean_coefficient)
    # bit for bit.  Every Euclidean evaluation and solve reads it.
    return (l - 1) * (3 * n + 6 * l - 8) / 3


class Spectrum(_Record):
    """Ascending positive eigenvalues with their origin.

    ``provenance`` is one of computed (solved here, with eigenvectors and
    forms retained), synthetic (constructed numbers), or file (parsed from a
    spectrum file).  Only computed spectra may claim theorem verification.
    ``vectors``, ``forms`` and ``m`` take no part in equality, and ``repr``
    leaves out ``vectors`` and ``forms``.
    """

    _uncompared = ("vectors", "forms", "m")
    _unshown = ("vectors", "forms")

    def __init__(self, values, n, l, provenance="synthetic", vectors=None, forms=None, m=None):
        _require_int(n, "n", 1)
        _require_int(l, "l", 2)
        if provenance not in _PROVENANCES:
            raise InvalidParameterError(
                f"provenance must be one of {_PROVENANCES}, got {_shown(provenance)}"
            )
        values = _require_positive_floats(values, "eigenvalues")
        if not values:
            raise InvalidParameterError("a spectrum needs at least one eigenvalue")
        if any(b < a for a, b in zip(values, values[1:])):
            raise InvalidParameterError("eigenvalues must be nondecreasing")
        self._store(locals())

    @property
    def k(self):
        return len(self.values)


def parse_spectrum(text):
    """Parse the spectrum text format: '# n=<int> l=<int>' then one value per line."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise SpectrumFormatError("empty spectrum input")
    match = _HEADER_RE.match(lines[0])
    if match is None:
        raise SpectrumFormatError(
            f"first line must look like '# n=<int> l=<int>', got {lines[0]!r}"
        )
    try:
        n, l = int(match.group(1)), int(match.group(2))
    except ValueError:  # more digits than int() reads
        raise SpectrumFormatError("n and l in the header must be below 2**63") from None
    values = []
    for line in lines[1:]:
        try:
            values.append(float(line))
        except ValueError:
            raise SpectrumFormatError(f"unreadable eigenvalue line {line!r}") from None
    try:
        return Spectrum(values=tuple(values), n=n, l=l, provenance="file")
    except InvalidParameterError as exc:
        raise SpectrumFormatError(str(exc)) from None


def _read_ascii(path):
    # The spectrum format is ASCII text; any other byte is a format error.
    _require_path(path)
    try:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise SpectrumFormatError(f"{path} is not ASCII text: {exc}") from None


def read_spectrum(path):
    return parse_spectrum(_read_ascii(path))


def format_spectrum_csv(spectrum):
    lines = [f"# n={spectrum.n} l={spectrum.l}"]
    lines.extend(repr(v) for v in spectrum.values)
    return "\n".join(lines) + "\n"


class DeltaSequence(_Record):
    """Positive non-increasing weight sequence."""

    def __init__(self, values):
        values = _require_positive_floats(values, "delta entries")
        if not values:
            raise InvalidParameterError("delta sequence must be nonempty")
        if any(b > a for a, b in zip(values, values[1:])):
            raise InvalidParameterError("delta entries must be non-increasing")
        self._store(locals())

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


class BoundReport(_Record):
    """Outcome of scoring one inequality at one candidate.

    ``residual`` is lhs - rhs; the inequality is satisfied when the residual
    does not exceed ``tolerance`` = 1e-9 * max(|lhs|, |rhs|).  The verdict
    is decided in the evaluator's units (module docstring), where neither
    side leaves the float range.  Only the evaluators return reports; the
    solvers return the bound as a float.
    """

    def __init__(self, method, k, lhs, rhs, residual, tolerance, satisfied):
        self._store(locals())

    to_dict = _Record._asdict


def _holds(lhs, rhs):
    # The one verdict rule (module docstring): whether lhs - rhs is at most
    # 1e-9 max(|lhs|, |rhs|), and that max.
    size = max(abs(lhs), abs(rhs))
    return lhs - rhs <= RESIDUAL_TOLERANCE * size, size


def _report(method, k, lhs, rhs, shift=0):
    # lhs and rhs come multiplied by 4**shift (module docstring): the verdict
    # is decided there and every number is scaled back.
    satisfied, size = _holds(lhs, rhs)
    scaled = (_ldexp(x, -2 * shift) for x in (lhs, rhs, lhs - rhs, RESIDUAL_TOLERANCE * size))
    return BoundReport(method, k, *scaled, satisfied)


def _ldexp(x, exp):
    # x * 2**exp, or +-inf past the float range where math.ldexp raises.
    try:
        return math.ldexp(x, exp)
    except OverflowError:
        return math.copysign(math.inf, x)


def _as_delta(delta, k):
    if not isinstance(delta, DeltaSequence):
        delta = DeltaSequence(delta)
    if len(delta) != k:
        raise InvalidParameterError(f"delta has length {len(delta)}, expected k={k}")
    return delta


def _check_k(spectrum, k):
    # The checks every bound function makes once, at its entry, directly or
    # through _check_candidate: a Spectrum, k, then n >= 2 (a Spectrum has
    # l >= 2).  It returns what the kernels take: the first k eigenvalues, n
    # and l.
    _require_type(spectrum, Spectrum, "spectrum")
    _require_int(k, "k", 1)
    if k > spectrum.k:
        raise InvalidParameterError(f"k={k} exceeds the spectrum length {spectrum.k}")
    _require_int(spectrum.n, "n", 2)
    return spectrum.values[:k], spectrum.n, spectrum.l


def _check_candidate(spectrum, k, candidate):
    # _check_k, and the candidate as a float at or above eigenvalue k
    values, n, l = _check_k(spectrum, k)
    candidate = _converted(_real, candidate, "candidate")
    if not math.isfinite(candidate):
        raise InvalidParameterError(f"candidate must be finite, got {candidate}")
    if candidate < values[-1]:
        raise InvalidParameterError(f"candidate {candidate} is below eigenvalue {k} = {values[-1]}")
    return values, n, l, candidate


def _unit_prefix(values, l, top):
    # The Euclidean units (module docstring): shift = 2 (l-1) w, which brings
    # top near 1, and the eigenvalues times 2**shift.  The cor11 solver,
    # which has no candidate, takes its units from here.
    shift = -2 * (l - 1) * round(math.frexp(top)[1] / (2 * (l - 1)))
    return shift, [math.ldexp(v, shift) for v in values]


def _euclidean_units(values, l, candidate):
    # _unit_prefix at the candidate, and its gaps to the eigenvalues, also
    # times 2**shift.
    shift, scaled = _unit_prefix(values, l, candidate)
    x = math.ldexp(candidate, shift)
    return shift, scaled, [x - v for v in scaled]


def _euclidean_powers(values, n, l, candidate):
    # _euclidean_units, then tilt = 2 (l-2) w, the coefficient as a float,
    # and the heavy powers lam**((l-2)/(l-1)) * 2**tilt and light powers
    # lam**(1/(l-1)) * 4**w of the eigenvalues, each taken of the raw
    # eigenvalue.  delta carries 2**-tilt in these units.
    shift, scaled, gaps = _euclidean_units(values, l, candidate)
    tilt = (l - 2) * shift // (l - 1)
    heavy = [math.ldexp(v ** ((l - 2) / (l - 1)), tilt) for v in values]
    light = [math.ldexp(v ** (1 / (l - 1)), shift // (l - 1)) for v in values]
    return shift, tilt, scaled, gaps, _coefficient(n, l), heavy, light


@lru_cache
def _quadratic_constant(n, l):
    # C = 4 * coefficient / n**2 of the quadratic corollary, which needs none
    # of the powers that _euclidean_powers computes; built once per (n, l).
    return 4.0 * _coefficient(n, l) / n**2


def _sqrt_form_sums(gaps, heavy, light):
    # The three sums of the square-root form: sum g**2, sum g**2 * heavy and
    # sum g * light, each gap squared once.
    squares = [g * g for g in gaps]
    return math.fsum(squares), math.fsum(map(mul, squares, heavy)), math.fsum(map(mul, gaps, light))


def _sphere_prefix(values, n, l):
    # The lhs weights, s_terms and plain-gap weights root + (n-2)**2/4 of
    # the eigenvalues, from the roots lam**(1/(l-1)) and root gaps that
    # polyrec's admissibility check returns: the spherical functions' last
    # check, before the s_term kernel runs on each eigenvalue.
    roots, gaps = _root_gaps(values, n, l)
    quarter = (n - 2) ** 2 / 4.0
    lhs_weights = [2.0 + (n - 2) / g for g in gaps]
    light = [r + quarter for r in roots]
    return lhs_weights, [_s_term(l, n, v, g) for v, g in zip(values, gaps)], light


def eval_thm11(spectrum, k, candidate, delta):
    """Score the Euclidean gap inequality at ``candidate`` with weights delta.

    lhs is n * sum of squared gaps; rhs couples each squared gap to the
    coefficient from ``euclidean_coefficient`` times lam**((l-2)/(l-1)) and
    each plain gap to lam**(1/(l-1)) / delta.
    """
    values, n, l, candidate = _check_candidate(spectrum, k, candidate)
    shift, tilt, _, gaps, coeff, heavy, light = _euclidean_powers(values, n, l, candidate)
    delta = _as_delta(delta, k)
    lhs = n * math.fsum(g * g for g in gaps)
    rhs = _thm11_rhs([_ldexp(d, -tilt) for d in delta], gaps, coeff, heavy, light)
    report = _report("thm11", k, lhs, rhs, shift)
    if rhs == math.inf:
        # perhaps in units alone (module docstring); the lhs is then far
        # below the rhs at either scale, so the raw report keeps the verdict
        raw = _thm11_rhs(
            delta,
            [candidate - v for v in values],
            coeff,
            [v ** ((l - 2) / (l - 1)) for v in values],
            [v ** (1 / (l - 1)) for v in values],
        )
        if math.isfinite(raw):
            report = _report("thm11", k, report.lhs, raw)
    return report


def _thm11_rhs(delta, gaps, coeff, heavy, light):
    # A delta that underflows to 0 makes its term g c / delta overflow, as
    # one that overflows does its other term; every term is positive, so a
    # sum that fsum finds past the float range is +inf too.  A zero gap adds
    # nothing, also where its delta overflows and d g**2 would be inf * 0.
    try:
        return math.fsum(
            d * g * g * coeff * h for d, g, h in zip(delta, gaps, heavy) if g
        ) + math.fsum(g / d * c for d, g, c in zip(delta, gaps, light))
    except (ZeroDivisionError, OverflowError):
        return math.inf


def eval_eq112(spectrum, k, candidate):
    """Score the square-root form obtained from the constant optimal delta.

    Normalized like the weighted form (lhs carries the factor n) so the
    residual here equals the weighted residual at the optimal constant
    delta.
    """
    values, n, l, candidate = _check_candidate(spectrum, k, candidate)
    shift, _, _, gaps, coeff, heavy, light = _euclidean_powers(values, n, l, candidate)
    squares, t_heavy, t_light = _sqrt_form_sums(gaps, heavy, light)
    rhs = 2.0 * math.sqrt(coeff) * math.sqrt(t_heavy) * math.sqrt(t_light)
    return _report("eq112", k, n * squares, rhs, shift)


def eval_cor11(spectrum, k, candidate):
    """Score the quadratic corollary: sum of squared gaps vs C * sum(gap * lam).

    Decided in the Euclidean units, like the quadratic priors of
    ``eval_l2_priors``.
    """
    values, n, l, candidate = _check_candidate(spectrum, k, candidate)
    shift, scaled, gaps = _euclidean_units(values, l, candidate)
    big_c = _quadratic_constant(n, l)
    lhs = math.fsum(g * g for g in gaps)
    return _report("cor11", k, lhs, big_c * math.fsum(map(mul, gaps, scaled)), shift)


def optimize_delta(a, b):
    """Minimize sum(delta_i a_i + b_i / delta_i) over positive non-increasing delta.

    Unconstrained minimizers sqrt(b_i / a_i) are pooled by adjacent
    violators; a pooled block takes the value sqrt(sum b / sum a), which is
    the exact minimizer of the block subproblem.  All weights must be
    strictly positive; a minimizer that leaves the float range raises
    ``NumericalError``.
    """
    a = _require_positive_floats(a, "weights")
    b = _require_positive_floats(b, "weights")
    if len(a) != len(b) or not a:
        raise InvalidParameterError("weight lists must be nonempty and of equal length")
    return _minimizing_delta(_pool_adjacent_violators(a, b))


def _minimizing_delta(delta):
    # The DeltaSequence of a minimizer, whose entries must lie in (0, inf):
    # sqrt(sum b / sum a) is 0, inf or nan where a quotient or a sum leaves
    # the float range, and so is a minimizer scaled back from the units.
    if not all(0.0 < d < math.inf for d in delta):
        raise NumericalError("the minimizing delta leaves the float range")
    return DeltaSequence(tuple(delta))


def _minimizer(a, b, describe):
    # optimize_delta's minimizer of weights computed in floats, where a
    # weight of 0 or inf is an underflow or overflow: NumericalError(describe())
    if not (0.0 < min(a) and max(a) < math.inf and 0.0 < min(b) and max(b) < math.inf):
        raise NumericalError(describe())
    return _pool_adjacent_violators(a, b)


def _pool_adjacent_violators(a, b):
    # optimize_delta's minimizer as a list, for positive finite weights.
    blocks = []  # (sum_a, sum_b, count, value)
    for ai, bi in zip(a, b):
        sum_a, sum_b, count = ai, bi, 1
        value = math.sqrt(sum_b / sum_a)
        while blocks and blocks[-1][3] < value:
            pa, pb, pc, _ = blocks.pop()
            sum_a += pa
            sum_b += pb
            count += pc
            value = math.sqrt(sum_b / sum_a)
        blocks.append((sum_a, sum_b, count, value))
    # The merge loop appends a block only after one at least as large, so
    # the block values are already non-increasing.
    out = []
    for _, _, count, value in blocks:
        out.extend([value] * count)
    return out


def delta_objective(delta, a, b):
    """The bilinear objective sum(delta_i a_i) + sum(b_i / delta_i).

    The weights are checked as ``optimize_delta`` checks them, and the
    delta entries too: positive and finite, in any order.  An objective
    that leaves the float range raises ``NumericalError``.
    """
    values = _require_positive_floats(delta, "delta entries")
    a = _require_positive_floats(a, "weights")
    b = _require_positive_floats(b, "weights")
    if len(values) != len(a) or len(a) != len(b):
        raise InvalidParameterError("objective needs matching lengths")
    return _finite_sum(
        lambda: "the objective leaves the float range", map(mul, values, a), map(truediv, b, values)
    )


def thm11_optimal_delta(spectrum, k, candidate):
    """The minimizing weights for ``eval_thm11`` at one candidate.

    Gaps of zero contribute nothing to either side, so those trailing
    indices are excluded from the optimization and inherit the last
    optimized value (1.0 when every gap vanishes).
    """
    values, n, l, candidate = _check_candidate(spectrum, k, candidate)
    _, tilt, _, gaps, coeff, heavy, light = _euclidean_powers(values, n, l, candidate)
    kept = sum(1 for g in gaps if g > 0.0)
    if kept == 0:
        return DeltaSequence((1.0,) * k)
    a = [g * g * coeff * h for g, h in zip(gaps[:kept], heavy)]
    b = [g * c for g, c in zip(gaps[:kept], light)]
    describe = lambda: "the minimizing delta leaves the float range"
    head = [_ldexp(d, tilt) for d in _minimizer(a, b, describe)]
    return _minimizing_delta(head + [head[-1]] * (k - kept))


def next_bound_cor11(spectrum, k):
    """Largest root of the quadratic corollary, an upper bound for the next eigenvalue.

    With C = 4 * coefficient / n**2 the feasible candidates satisfy
    k x**2 - (2 + C) S1 x + (1 + C) S2 <= 0 where S1, S2 are the power sums
    of the first k eigenvalues.  At x = eigenvalue k this quadratic is the
    (k-1)-th inequality, so a prefix whose quadratic there is positive, to
    the relative tolerance 1e-9 of its terms, is not a buckling spectrum
    prefix.  It is solved in the Euclidean units, so only a bound beyond
    the float range raises ``NumericalError``.
    """
    return _next_cor11(*_check_k(spectrum, k))


def _next_cor11(values, n, l):
    # next_bound_cor11 of a checked prefix: the kernel that chain_bounds loops
    k, top = len(values), values[-1]
    shift, scaled = _unit_prefix(values, l, top)
    big_c = _quadratic_constant(n, l)
    s1 = math.fsum(scaled)
    s2 = math.fsum(v * v for v in scaled)
    linear, constant, last = (2.0 + big_c) * s1, (1.0 + big_c) * s2, scaled[-1]
    _require_feasible("quadratic", values, k * last * last + constant, linear * last)
    # The quadratic is at most zero at eigenvalue k, so a root lies at or
    # above it and a negative discriminant is roundoff.
    disc = max(linear * linear - 4.0 * k * constant, 0.0)
    try:
        return math.ldexp(max((linear + math.sqrt(disc)) / (2.0 * k), last), -shift)
    except OverflowError:
        raise NumericalError(
            f"the quadratic bound after eigenvalue {k} = {top} exceeds the float range"
        ) from None


def _largest_quadratic_root(k, linear, constant):
    # The larger root of k x**2 - linear x + constant, or None when the
    # discriminant is negative or not a number (coefficients past the float
    # range).
    disc = linear * linear - 4.0 * k * constant
    if not disc >= 0.0:
        return None
    return (linear + math.sqrt(disc)) / (2.0 * k)


def _scan_limit(top, below, u):
    # The end of a bound solver's scan (module docstring): candidates
    # x = top + y with gaps g = y + e, e = top - lambda >= 0 listed in below,
    # and sum g**2 <= sum g u have y <= max(u) - mean(e), and y at most the
    # largest root of k y**2 - (sum u - 2 sum e) y + sum e (e - u) when it has
    # one.  This centered quadratic stays accurate when the root sits just
    # above top.
    k, spread = len(below), math.fsum(below)
    root = _largest_quadratic_root(
        k, math.fsum(u) - 2.0 * spread, math.fsum(e * (e - w) for e, w in zip(below, u))
    )
    first = max(u) - spread / k
    return top + (first if root is None else min(first, root))


def _require_feasible(form, values, lhs, rhs):
    # The solvers' feasibility check (module docstring): lhs and rhs of the
    # form at eigenvalue k, decided by the one verdict rule.
    feasible, size = _holds(lhs, rhs)
    if not feasible:
        raise InfeasibleSpectrumError(
            f"the {form} form fails at eigenvalue {len(values)} = {values[-1]} "
            f"(relative residual {(lhs - rhs) / size} above tolerance {RESIDUAL_TOLERANCE})"
        )


def _largest_root(f, start, limit):
    # Probe geometrically from start to the first probe past limit * step,
    # then bisect the last sign change.  The caller's limit bounds every
    # feasible candidate; the extra step keeps a root that sits at the limit
    # (k = 1 for the sharp form) inside the scan despite roundoff.  When the
    # limit overflows, the scan ends at the largest float, which is also the
    # cap of every probe, so f never sees inf.
    # Sub-doubling spacing matters: a feasible window can open just above
    # start (where f sits at roundoff from a saturated prefix) and close
    # before 2 * start, which factor-2 probes would skip.
    # f is evaluated lazily from the top probe down, and the walk stops at the
    # first pair with f(lower) <= 0 < f(upper): the last sign change, the one
    # a full upward scan would keep, so no probe below it is evaluated.
    step = 2.0 ** (1.0 / PROBES_PER_DOUBLING)
    top = sys.float_info.max
    end = min(max(start, limit) * step, top)
    probes = [start]
    while probes[-1] <= end and probes[-1] < top:
        try:
            probe = start * step ** len(probes)
        except OverflowError:
            # step**j passes the float range from j = 1024 * PROBES_PER_DOUBLING
            # on, which only a start far below 1 reaches; from there each probe
            # is the last one times step, and a product past top is inf
            probe = probes[-1] * step
        probes.append(min(probe, top))
    hi = probes[-1]
    f_hi = f(hi)
    for lo in reversed(probes[:-1]):
        f_lo = f(lo)
        if f_lo <= 0.0 < f_hi:
            break
        hi, f_hi = lo, f_lo
    else:
        raise BracketError(
            f"no sign change between {start} and {probes[-1]}; "
            "the inequality brackets no candidate"
        )
    for _ in range(200):
        if hi - lo <= BISECT_RELATIVE * hi:
            break
        mid = _midpoint(lo, hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return _midpoint(lo, hi)


def _midpoint(lo, hi):
    # 0.5 * (lo + hi), unless the sum leaves the float range near its top.
    total = lo + hi
    return 0.5 * total if math.isfinite(total) else lo + 0.5 * (hi - lo)


def next_bound_sharp(spectrum, k):
    """Largest candidate allowed by the square-root form, by bracketing and bisection.

    The form must already hold at eigenvalue k itself, to the relative
    tolerance 1e-9 that every inequality here is decided by: a prefix that
    fails it there is not a buckling spectrum prefix and is rejected before
    probing.
    """
    return _next_sharp(*_check_k(spectrum, k))


def _next_sharp(values, n, l):
    # next_bound_sharp of a checked prefix: the kernel that chain_bounds loops
    k = len(values)
    shift, _, scaled, gaps, coeff, heavy, light = _euclidean_powers(values, n, l, values[-1])
    # The gaps at eigenvalue k are d = lambda_k - lambda >= 0, and these are
    # the centered power sums of the sign certificate (module docstring).
    d2, hd2, cd1 = _sqrt_form_sums(gaps, heavy, light)
    rhs = 2.0 * math.sqrt(coeff) * math.sqrt(hd2) * math.sqrt(cd1)
    _require_feasible("square-root", values, n * d2, rhs)
    scale = 2.0 * math.sqrt(coeff) / n
    last = scaled[-1]
    d1, h0, c0 = math.fsum(gaps), math.fsum(heavy), math.fsum(light)
    hd1 = math.fsum(map(mul, heavy, gaps))
    floor = math.ldexp(k * (2.0 + max(heavy)), -1018)

    def shortfall(x):
        x = math.ldexp(x, shift)
        y = x - last
        yy = y * y
        squares = k * yy + 2.0 * y * d1 + d2
        t_heavy = yy * h0 + 2.0 * y * hd1 + hd2
        t_light = c0 * y + cd1
        sharp = scale * math.sqrt(t_heavy) * math.sqrt(t_light)
        value = squares - sharp
        total = squares + sharp
        if (
            abs(value) > _SHARP_MARGIN * total
            and total + t_heavy + t_light <= _SHARP_SIZE_CAP
            and min(squares, t_heavy, t_light) >= floor * (1.0 + y)
        ):
            return value
        # no certified sign: the fsum loop decides
        squares, t_heavy, t_light = _sqrt_form_sums([x - v for v in scaled], heavy, light)
        return squares - scale * math.sqrt(t_heavy) * math.sqrt(t_light)

    # Every candidate satisfies cor11, sum g**2 <= sum g C lambda (module
    # docstring), which ends the scan.
    big_c = _quadratic_constant(n, l)
    limit = _scan_limit(last, gaps, [big_c * v for v in scaled])
    return _largest_root(shortfall, values[-1], _ldexp(limit, -shift))


def eval_thm12(spectrum, k, candidate, delta):
    """Score the spherical-domain gap inequality at ``candidate`` with weights delta.

    Each eigenvalue must satisfy lam**(1/(l-1)) > n - 2.  The lhs weights a
    squared gap by 2 + (n-2)/(lam**(1/(l-1)) - (n-2)); the rhs couples
    squared gaps to delta_i * s_term and plain gaps to
    (lam**(1/(l-1)) + (n-2)**2/4) / delta_i.  It is scored at raw scale, so
    a side that leaves the float range raises ``NumericalError``.
    """
    values, n, l, candidate = _check_candidate(spectrum, k, candidate)
    delta = _as_delta(delta, k)
    lhs_weights, s_values, light = _sphere_prefix(values, n, l)
    gaps = [candidate - v for v in values]
    describe = lambda: _out_of_range(candidate)
    lhs = _finite_sum(describe, (g * g * w for g, w in zip(gaps, lhs_weights)))
    rhs = _finite_sum(
        describe,
        (g * g * d * s for g, d, s in zip(gaps, delta, s_values)),
        (g / d * c for g, d, c in zip(gaps, delta, light)),
    )
    return _report("thm12", k, lhs, rhs)


def next_bound_sphere(spectrum, k):
    """Largest candidate for which the spherical inequality with optimized delta holds.

    At each probe the weights are re-optimized over positive non-increasing
    sequences; zero-gap indices contribute nothing and are dropped.  Every
    s_term must be strictly positive, otherwise the inner minimization is
    unbounded and no finite bound exists.  Like the square-root solver it
    rejects a prefix whose form already fails at eigenvalue k itself, to the
    relative tolerance 1e-9 that every inequality here is decided by.
    """
    values, n, l = _check_k(spectrum, k)
    lhs_weights, s_values, light = _sphere_prefix(values, n, l)
    for i, s in enumerate(s_values):
        if s <= 0.0:
            raise InfeasibleSpectrumError(
                f"s_term of eigenvalue {i + 1} is {s} <= 0; the delta optimization "
                "needs positive quadratic weights, so no bound can be extracted "
                "from this prefix"
            )

    def sides(x):
        # x >= eigenvalue k, so the positive gaps are those of the eigenvalues
        # below x; the ascending prefix puts them first.
        gaps = [x - v for v in values[: bisect_left(values, x)]]
        if not gaps:
            return 0.0, 0.0
        squares = [g * g for g in gaps]
        a = list(map(mul, squares, s_values))
        b = list(map(mul, gaps, light))
        describe = lambda: _out_of_range(x)
        # A pooled block whose sum of a overflows gets delta 0, one whose sum
        # of b overflows gets inf (nan when both do).
        delta = _minimizer(a, b, describe)
        lhs = _finite_sum(describe, map(mul, squares, lhs_weights))
        return lhs, _finite_sum(describe, map(mul, delta, a), map(truediv, b, delta))

    _require_feasible("spherical", values, *sides(values[-1]))
    return _largest_root(lambda x: sub(*sides(x)), values[-1], _sphere_cap(values, s_values, light))


def _out_of_range(x):
    # the message of a spherical sum or weight past the float range at x
    return f"the spherical weights at {x} leave the float range"


def _sphere_cap(values, s_values, light):
    # _scan_limit of the spherical form (module docstring): every candidate
    # has sum g**2 <= sum g u, with u = s * light when the s_terms are
    # nondecreasing along the prefix and max(s) * light otherwise.
    if all(p <= q for p, q in zip(s_values, s_values[1:])):
        u = list(map(mul, s_values, light))
    else:
        top = max(s_values)
        u = [top * c for c in light]
    return _scan_limit(values[-1], [values[-1] - v for v in values], u)


def chain_bounds(lambda1, count, n, l, method):
    """Iterate a next-bound solver from a single starting eigenvalue.

    Each produced bound joins the synthetic spectrum used for the next step,
    so entry j is the solver's bound for the chain of entries before it.  It
    is not a bound on eigenvalue j of every spectrum starting at lambda1: the
    next bound is not monotone in the earlier eigenvalues, and a lower
    feasible prefix can admit a larger next eigenvalue.  The output is
    strictly increasing.
    """
    _require_int(count, "count", 1)
    _require_int(n, "n", 2)
    _require_int(l, "l", 2)
    (lambda1,) = _require_positive_floats((lambda1,), "lambda1")
    kernels = {"cor11": _next_cor11, "sharp": _next_sharp}
    if not isinstance(method, str) or method not in kernels:
        raise InvalidParameterError(
            f"method must be one of {sorted(kernels)}, got {_shown(method)}"
        )
    # every entry is positive, finite and above the one before it, so the
    # list is a checked prefix at each step
    values = [lambda1]
    for j in range(1, count):
        nxt = kernels[method](values, n, l)
        if nxt <= values[-1]:
            raise InternalConsistencyError(
                f"chain stalled at step {j}: bound {nxt} does not exceed {values[-1]}"
            )
        values.append(nxt)
    return values


def eval_l2_priors(spectrum, k, candidate, delta_scalar=1.0):
    """Score the three earlier order-2 inequalities for comparison.

    prior16 and prior18 are the quadratic forms with coefficients
    4(n+2)/n**2 and 4(n+4/3)/n**2; prior18 is sharper since 4/3 < 2.
    prior19 is the spherical single-weight form and uses ``delta_scalar``.
    Only meaningful at l = 2.  All three are decided in the Euclidean units
    like ``eval_cor11``.  prior19's weight delta lam + delta**2 (lam - (n-2))
    / (4 (delta lam + n - 2)) is evaluated with one delta cancelled, as
    delta (lam + (lam - (n-2)) / (4 (lam + (n-2) / delta))), whose divisor
    is at least lam; it raises ``NumericalError`` when its rhs is undefined
    in the float range, with weights past it of both signs.
    """
    values, n, l, candidate = _check_candidate(spectrum, k, candidate)
    if l != 2:
        raise InvalidParameterError(f"the prior inequalities require l=2, got l={l}")
    shift, scaled, gaps = _euclidean_units(values, l, candidate)
    (d,) = _require_positive_floats((delta_scalar,), "delta")
    # A zero gap adds nothing to either sum, also where its weight is not
    # finite and g * g * inf would be nan.
    heavy = [
        g * g * (d * (v + (v - (n - 2)) / (4.0 * (v + (n - 2) / d))))
        for g, v in zip(gaps, values)
        if g
    ]
    # prior19's weights are not homogeneous in lam, so they are taken of the
    # raw eigenvalues; the gaps carry 2**shift, and so does each light factor,
    # so that every term carries 4**shift
    light = [g * _ldexp(v + (n - 2) ** 2 / 4.0, shift) for g, v in zip(gaps, values) if g]
    rhs = _side_sum(heavy) + _side_sum(light) / d
    if math.isnan(rhs):
        raise NumericalError(f"the prior19 rhs at delta = {d} is undefined in the float range")
    # prior16 and prior18 are sum g**2 <= C sum g lam, like eval_cor11
    squares = math.fsum(g * g for g in gaps)
    tilted = math.fsum(map(mul, gaps, scaled))
    return [
        _report("prior16", k, squares, 4.0 * (n + 2.0) / (n * n) * tilted, shift),
        _report("prior18", k, squares, 4.0 * (n + 4.0 / 3.0) / (n * n) * tilted, shift),
        _report("prior19", k, 2.0 * squares, rhs, shift),
    ]


def _side_sum(terms):
    # The fsum of a report side's terms, +inf where fsum finds a sum of
    # nonnegative terms past the float range, and nan where the sum is
    # undefined: terms of both signs past it, or inf - inf.
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.inf if all(t >= 0.0 for t in terms) else math.nan
