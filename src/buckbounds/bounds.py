"""Universal gap inequalities for clamped buckling spectra and their bound solvers.

A Spectrum carries ascending positive eigenvalues plus the dimension n and
order l it belongs to.  Evaluators score one inequality at one candidate for
the next eigenvalue and report lhs, rhs, and the satisfaction margin; solvers
turn an inequality into the largest admissible candidate.  Weight sequences
delta must be positive and non-increasing; ``optimize_delta`` produces the
minimizing one by pool-adjacent-violators.

The sharp and spherical solvers scan geometrically from eigenvalue k up to a
limit that their own inequality puts on every feasible candidate, then bisect
the last sign change.  ``BracketError`` means no sign change below that limit.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .errors import (
    BracketError,
    DomainViolationError,
    InfeasibleSpectrumError,
    InternalConsistencyError,
    InvalidParameterError,
    NumericalError,
    SpectrumFormatError,
)
from .polyrec import _require_int, s_term

RESIDUAL_TOLERANCE = 1e-9
PROBES_PER_DOUBLING = 16
BISECT_RELATIVE = 1e-13

_PROVENANCES = ("computed", "synthetic", "file")
_HEADER_RE = re.compile(r"^#\s*n=(\d+)\s+l=(\d+)\s*$")


def euclidean_coefficient(n, l):
    """Exact rational 2 l**2 + (n - 14/3) l + 8/3 - n; strictly positive.

    At l = 2 this collapses to n + 4/3.  Positivity is asserted because the
    square-root bound divides by it.
    """
    _require_int(n, "n", 2)
    _require_int(l, "l", 2)
    value = Fraction(6 * l * l + 3 * n * l - 14 * l + 8 - 3 * n, 3)
    if value <= 0:
        raise InternalConsistencyError(f"coefficient {value} at n={n}, l={l} is not positive")
    return value


@dataclass(frozen=True)
class Spectrum:
    """Ascending positive eigenvalues with their origin.

    ``provenance`` is one of computed (solved here, with eigenvectors and
    forms retained), synthetic (constructed numbers), or file (parsed from a
    spectrum file).  Only computed spectra may claim theorem verification.
    """

    values: tuple
    n: int
    l: int
    provenance: str = "synthetic"
    vectors: object = field(default=None, compare=False, repr=False)
    forms: object = field(default=None, compare=False, repr=False)
    m: object = field(default=None, compare=False)

    def __post_init__(self):
        _require_int(self.n, "n", 1)
        _require_int(self.l, "l", 2)
        if self.provenance not in _PROVENANCES:
            raise InvalidParameterError(
                f"provenance must be one of {_PROVENANCES}, got {self.provenance!r}"
            )
        values = tuple(float(v) for v in self.values)
        if not values:
            raise InvalidParameterError("a spectrum needs at least one eigenvalue")
        previous = 0.0
        for v in values:
            if not math.isfinite(v) or v <= 0.0:
                raise InvalidParameterError(f"eigenvalues must be positive finite, got {v}")
            if v < previous:
                raise InvalidParameterError("eigenvalues must be nondecreasing")
            previous = v
        object.__setattr__(self, "values", values)

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
    n, l = int(match.group(1)), int(match.group(2))
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


@dataclass(frozen=True)
class DeltaSequence:
    """Positive non-increasing weight sequence."""

    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if not values:
            raise InvalidParameterError("delta sequence must be nonempty")
        previous = math.inf
        for v in values:
            if not math.isfinite(v) or v <= 0.0:
                raise InvalidParameterError(f"delta entries must be positive finite, got {v}")
            if v > previous:
                raise InvalidParameterError("delta entries must be non-increasing")
            previous = v
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of scoring one inequality at one candidate.

    ``residual`` is lhs - rhs; the inequality is satisfied when the residual
    does not exceed ``tolerance`` = 1e-9 * max(1, |lhs|, |rhs|).  Only the
    evaluators return reports; the solvers return the bound as a float.
    """

    method: str
    k: int
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    satisfied: bool

    def to_dict(self):
        return asdict(self)


def _report(method, k, lhs, rhs):
    residual = lhs - rhs
    tolerance = RESIDUAL_TOLERANCE * max(1.0, abs(lhs), abs(rhs))
    return BoundReport(
        method=method,
        k=k,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        tolerance=tolerance,
        satisfied=residual <= tolerance,
    )


def _as_delta(delta, k):
    if not isinstance(delta, DeltaSequence):
        delta = DeltaSequence(tuple(delta))
    if len(delta) != k:
        raise InvalidParameterError(f"delta has length {len(delta)}, expected k={k}")
    return delta


def _check_k(spectrum, k):
    _require_int(k, "k", 1)
    if k > spectrum.k:
        raise InvalidParameterError(f"k={k} exceeds the spectrum length {spectrum.k}")


def _check_candidate(spectrum, k, candidate):
    _check_k(spectrum, k)
    candidate = float(candidate)
    if not math.isfinite(candidate):
        raise InvalidParameterError(f"candidate must be finite, got {candidate}")
    if candidate < spectrum.values[k - 1]:
        raise InvalidParameterError(
            f"candidate {candidate} is below eigenvalue {k} = {spectrum.values[k - 1]}"
        )
    return candidate


def _euclidean_prefix(spectrum, k):
    # The first k eigenvalues, the coefficient as a float, and the powers
    # lam**((l-2)/(l-1)) and lam**(1/(l-1)) of each eigenvalue.
    l = spectrum.l
    values = spectrum.values[:k]
    e_heavy = (l - 2) / (l - 1)
    e_light = 1 / (l - 1)
    heavy = [v**e_heavy for v in values]
    light = [v**e_light for v in values]
    return values, float(euclidean_coefficient(spectrum.n, l)), heavy, light


def _quadratic_constant(spectrum):
    # C = 4 * coefficient / n**2 of the quadratic corollary, which needs none
    # of the powers that _euclidean_prefix computes.
    n = spectrum.n
    return 4.0 * float(euclidean_coefficient(n, spectrum.l)) / (n * n)


def _sqrt_form_sums(gaps, heavy, light):
    # The three sums of the square-root form: sum g**2, sum g**2 * heavy and
    # sum g * light.
    return (
        math.fsum(g * g for g in gaps),
        math.fsum(g * g * h for g, h in zip(gaps, heavy)),
        math.fsum(g * c for g, c in zip(gaps, light)),
    )


def _sphere_prefix(spectrum, k):
    # The first k eigenvalues with their lhs weights, s_terms and plain-gap
    # weights root + (n-2)**2/4, where every root = lam**(1/(l-1)) must
    # exceed n - 2.
    n, l = spectrum.n, spectrum.l
    values = spectrum.values[:k]
    quarter = (n - 2) ** 2 / 4.0
    lhs_weights, light = [], []
    for i, v in enumerate(values, start=1):
        root = v ** (1.0 / (l - 1))
        if root - (n - 2) <= 0.0:
            raise DomainViolationError(
                f"eigenvalue {i} = {v} violates "
                f"lam**(1/(l-1)) > n - 2 (root {root}, n - 2 = {n - 2})"
            )
        lhs_weights.append(2.0 + (n - 2) / (root - (n - 2)))
        light.append(root + quarter)
    return values, lhs_weights, [s_term(l, n, v) for v in values], light


def eval_thm11(spectrum, k, candidate, delta):
    """Score the Euclidean gap inequality at ``candidate`` with weights delta.

    lhs is n * sum of squared gaps; rhs couples each squared gap to the
    coefficient from ``euclidean_coefficient`` times lam**((l-2)/(l-1)) and
    each plain gap to lam**(1/(l-1)) / delta.
    """
    candidate = _check_candidate(spectrum, k, candidate)
    delta = _as_delta(delta, k)
    values, coeff, heavy, light = _euclidean_prefix(spectrum, k)
    gaps = [candidate - v for v in values]
    lhs = spectrum.n * math.fsum(g * g for g in gaps)
    rhs = math.fsum(
        d * g * g * coeff * h for d, g, h in zip(delta, gaps, heavy)
    ) + math.fsum(g / d * c for d, g, c in zip(delta, gaps, light))
    return _report("thm11", k, lhs, rhs)


def eval_eq112(spectrum, k, candidate):
    """Score the square-root form obtained from the constant optimal delta.

    Normalized like the weighted form (lhs carries the factor n) so the
    residual here equals the weighted residual at the optimal constant
    delta.
    """
    candidate = _check_candidate(spectrum, k, candidate)
    values, coeff, heavy, light = _euclidean_prefix(spectrum, k)
    squares, t_heavy, t_light = _sqrt_form_sums([candidate - v for v in values], heavy, light)
    rhs = 2.0 * math.sqrt(coeff) * math.sqrt(t_heavy) * math.sqrt(t_light)
    return _report("eq112", k, spectrum.n * squares, rhs)


def eval_cor11(spectrum, k, candidate):
    """Score the quadratic corollary: sum of squared gaps vs C * sum(gap * lam)."""
    candidate = _check_candidate(spectrum, k, candidate)
    big_c = _quadratic_constant(spectrum)
    values = spectrum.values[:k]
    gaps = [candidate - v for v in values]
    lhs = math.fsum(g * g for g in gaps)
    rhs = big_c * math.fsum(g * v for g, v in zip(gaps, values))
    return _report("cor11", k, lhs, rhs)


def optimize_delta(a, b):
    """Minimize sum(delta_i a_i + b_i / delta_i) over positive non-increasing delta.

    Unconstrained minimizers sqrt(b_i / a_i) are pooled by adjacent
    violators; a pooled block takes the value sqrt(sum b / sum a), which is
    the exact minimizer of the block subproblem.  All weights must be
    strictly positive.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if len(a) != len(b) or not a:
        raise InvalidParameterError("weight lists must be nonempty and of equal length")
    for v in a + b:
        if not math.isfinite(v) or v <= 0.0:
            raise InvalidParameterError(f"weights must be positive finite, got {v}")
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
    out = []
    previous = math.inf
    for _, _, count, value in blocks:
        value = min(value, previous)
        out.extend([value] * count)
        previous = value
    return DeltaSequence(tuple(out))


def delta_objective(delta, a, b):
    """The bilinear objective sum(delta_i a_i) + sum(b_i / delta_i)."""
    values = list(delta)
    if len(values) != len(a) or len(a) != len(b):
        raise InvalidParameterError("objective needs matching lengths")
    return math.fsum(d * ai for d, ai in zip(values, a)) + math.fsum(
        bi / d for d, bi in zip(values, b)
    )


def thm11_optimal_delta(spectrum, k, candidate):
    """The minimizing weights for ``eval_thm11`` at one candidate.

    Gaps of zero contribute nothing to either side, so those trailing
    indices are excluded from the optimization and inherit the last
    optimized value (1.0 when every gap vanishes).
    """
    candidate = _check_candidate(spectrum, k, candidate)
    values, coeff, heavy, light = _euclidean_prefix(spectrum, k)
    gaps = [candidate - v for v in values]
    kept = sum(1 for g in gaps if g > 0.0)
    if kept == 0:
        return DeltaSequence((1.0,) * k)
    a = [g * g * coeff * h for g, h in zip(gaps[:kept], heavy)]
    b = [g * c for g, c in zip(gaps[:kept], light)]
    head = list(optimize_delta(a, b))
    tail = [head[-1]] * (k - kept)
    return DeltaSequence(tuple(head + tail))


def next_bound_cor11(spectrum, k):
    """Largest root of the quadratic corollary, an upper bound for the next eigenvalue.

    With C = 4 * coefficient / n**2 the feasible candidates satisfy
    k x**2 - (2 + C) S1 x + (1 + C) S2 <= 0 where S1, S2 are the power sums
    of the first k eigenvalues.  A negative discriminant or a largest root
    below eigenvalue k means the input is not a buckling spectrum prefix.
    The quadratic is homogeneous, so it is solved for the prefix scaled by
    the power of two that brings eigenvalue k near 1, where its squares stay
    in the float range; the scaling is exact, and only a bound beyond the
    float range raises ``NumericalError``.
    """
    _check_k(spectrum, k)
    big_c = _quadratic_constant(spectrum)
    top = spectrum.values[k - 1]
    shift = math.frexp(top)[1]
    scale = math.ldexp(1.0, -shift)
    values = [v * scale for v in spectrum.values[:k]]
    s1 = math.fsum(values)
    s2 = math.fsum(v * v for v in values)
    linear = (2.0 + big_c) * s1
    constant = (1.0 + big_c) * s2
    disc = linear * linear - 4.0 * k * constant
    if disc < 0.0:
        raise InfeasibleSpectrumError(
            "negative discriminant: no candidate satisfies the quadratic bound"
        )
    root = (linear + math.sqrt(disc)) / (2.0 * k)
    if root < values[-1] * (1.0 - 1e-12):
        raise InfeasibleSpectrumError(
            f"largest root {math.ldexp(root, shift)} lies below eigenvalue {k} = {top}"
        )
    try:
        return math.ldexp(max(root, values[-1]), shift)
    except OverflowError:
        raise NumericalError(
            f"the quadratic bound after eigenvalue {k} = {top} exceeds the float range"
        ) from None


def _largest_root(f, start, limit):
    # Probe geometrically from start to the first probe past limit * step,
    # keep the last sign change, then bisect it.  The caller's limit bounds
    # every feasible candidate; the extra step keeps a root that sits at the
    # limit (k = 1 for the sharp form) inside the scan despite roundoff, and
    # the cap at the largest float ends the scan when the limit overflows.
    # Sub-doubling spacing matters: a feasible window can open just above
    # start (where f sits at roundoff from a saturated prefix) and close
    # before 2 * start, which factor-2 probes would skip.
    step = 2.0 ** (1.0 / PROBES_PER_DOUBLING)
    end = min(max(start, limit) * step, sys.float_info.max)
    probes = [start]
    while probes[-1] <= end:
        probes.append(start * step ** len(probes))
    signs = [f(x) for x in probes]
    lo = hi = None
    for left, right, f_left, f_right in zip(probes, probes[1:], signs, signs[1:]):
        if f_left <= 0.0 < f_right:
            lo, hi = left, right
    if lo is None:
        raise BracketError(
            f"no sign change between {start} and {probes[-1]}; "
            "the inequality brackets no candidate"
        )
    for _ in range(200):
        if hi - lo <= BISECT_RELATIVE * hi:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def next_bound_sharp(spectrum, k):
    """Largest candidate allowed by the square-root form, by bracketing and bisection.

    The form must already hold at eigenvalue k itself: a prefix that fails it
    there is not a buckling spectrum prefix and is rejected before probing.
    """
    _check_k(spectrum, k)
    report = eval_eq112(spectrum, k, spectrum.values[k - 1])
    if not report.satisfied:
        raise InfeasibleSpectrumError(
            f"the square-root form fails at eigenvalue {k} = {spectrum.values[k - 1]} "
            f"(residual {report.residual} above tolerance {report.tolerance})"
        )
    values, coeff, heavy, light = _euclidean_prefix(spectrum, k)
    scale = 2.0 * math.sqrt(coeff) / spectrum.n
    # The form is homogeneous of degree 2 in the prefix, so it is evaluated
    # for the prefix and x times c = 4**((l-1) w), which brings eigenvalue k
    # near 1 where the squared gaps stay in the float range.  Gaps scale by c,
    # the heavy powers by 4**((l-2) w) and the light ones by 4**w; every
    # exponent under a square root is even, so the shortfall scales by
    # exactly c**2.
    l = spectrum.l
    w = -round(math.frexp(values[-1])[1] / (2 * (l - 1)))
    shift = 2 * (l - 1) * w
    scaled = [math.ldexp(v, shift) for v in values]
    heavy = [math.ldexp(h, 2 * (l - 2) * w) for h in heavy]
    light = [math.ldexp(c, 2 * w) for c in light]

    def shortfall(x):
        x = math.ldexp(x, shift)
        squares, t_heavy, t_light = _sqrt_form_sums([x - v for v in scaled], heavy, light)
        return squares - scale * math.sqrt(t_heavy) * math.sqrt(t_light)

    # Each power is at most its value at lambda_k, so sum g**2 <= C lambda_k sum g,
    # and sum g**2 >= (sum g)**2 / k caps every feasible x.
    limit = math.fsum(values) / k + _quadratic_constant(spectrum) * values[-1]
    return _largest_root(shortfall, values[-1], limit)


def eval_thm12(spectrum, k, candidate, delta):
    """Score the spherical-domain gap inequality at ``candidate`` with weights delta.

    Each eigenvalue must satisfy lam**(1/(l-1)) > n - 2.  The lhs weights a
    squared gap by 2 + (n-2)/(lam**(1/(l-1)) - (n-2)); the rhs couples
    squared gaps to delta_i * s_term and plain gaps to
    (lam**(1/(l-1)) + (n-2)**2/4) / delta_i.
    """
    candidate = _check_candidate(spectrum, k, candidate)
    delta = _as_delta(delta, k)
    values, lhs_weights, s_values, light = _sphere_prefix(spectrum, k)
    gaps = [candidate - v for v in values]
    lhs = math.fsum(g * g * w for g, w in zip(gaps, lhs_weights))
    rhs = math.fsum(g * g * d * s for g, d, s in zip(gaps, delta, s_values)) + math.fsum(
        g / d * c for g, d, c in zip(gaps, delta, light)
    )
    return _report("thm12", k, lhs, rhs)


def next_bound_sphere(spectrum, k):
    """Largest candidate for which the spherical inequality with optimized delta holds.

    At each probe the weights are re-optimized over positive non-increasing
    sequences; zero-gap indices contribute nothing and are dropped.  Every
    s_term must be strictly positive, otherwise the inner minimization is
    unbounded and no finite bound exists.  Like the square-root solver it
    rejects a prefix whose form already fails at eigenvalue k itself.
    """
    _check_k(spectrum, k)
    values, lhs_weights, s_values, light = _sphere_prefix(spectrum, k)
    for i, s in enumerate(s_values):
        if s <= 0.0:
            raise InfeasibleSpectrumError(
                f"s_term of eigenvalue {i + 1} is {s} <= 0; the delta optimization "
                "needs positive quadratic weights, so no bound can be extracted "
                "from this prefix"
            )

    def sides(x):
        gaps = [x - v for v in values]
        kept = sum(1 for g in gaps if g > 0.0)
        if kept == 0:
            return 0.0, 0.0
        a = [g * g * s for g, s in zip(gaps[:kept], s_values)]
        b = [g * c for g, c in zip(gaps[:kept], light)]
        # Positive factors: a weight of 0 or inf is an underflow or overflow.
        if not all(0.0 < w < math.inf for w in a + b):
            raise NumericalError(f"the spherical weights at {x} leave the float range")
        delta = optimize_delta(a, b)
        lhs = math.fsum(g * g * w for g, w in zip(gaps[:kept], lhs_weights))
        return lhs, delta_objective(delta, a, b)

    # A zero last gap leaves the (k-1)-th inequality at eigenvalue k, which
    # every buckling spectrum satisfies.
    report = _report("thm12", k, *sides(values[-1]))
    if not report.satisfied:
        raise InfeasibleSpectrumError(
            f"the spherical form fails at eigenvalue {k} = {values[-1]} "
            f"(residual {report.residual} above tolerance {report.tolerance})"
        )

    def shortfall(x):
        lhs, rhs = sides(x)
        return lhs - rhs

    # lhs >= 2 sum g**2 and rhs <= its constant-delta value, so
    # sum g**2 <= max(s) max(light) sum g caps x as in the sharp solver.
    limit = math.fsum(values) / k + max(s_values) * max(light)
    return _largest_root(shortfall, values[-1], limit)


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
    lambda1 = float(lambda1)
    if not math.isfinite(lambda1) or lambda1 <= 0.0:
        raise InvalidParameterError(f"lambda1 must be positive finite, got {lambda1}")
    solvers = {"cor11": next_bound_cor11, "sharp": next_bound_sharp}
    if method not in solvers:
        raise InvalidParameterError(f"method must be one of {sorted(solvers)}, got {method!r}")
    solver = solvers[method]
    values = [lambda1]
    for j in range(1, count):
        spectrum = Spectrum(values=tuple(values), n=n, l=l, provenance="synthetic")
        nxt = solver(spectrum, j)
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
    Only meaningful at l = 2.
    """
    if spectrum.l != 2:
        raise InvalidParameterError(f"the prior inequalities require l=2, got l={spectrum.l}")
    candidate = _check_candidate(spectrum, k, candidate)
    delta_scalar = float(delta_scalar)
    if not math.isfinite(delta_scalar) or delta_scalar <= 0.0:
        raise InvalidParameterError(f"delta must be positive finite, got {delta_scalar}")
    n = spectrum.n
    values = spectrum.values[:k]
    gaps = [candidate - v for v in values]
    sq = math.fsum(g * g for g in gaps)
    cross = math.fsum(g * v for g, v in zip(gaps, values))
    reports = [
        _report("prior16", k, sq, 4.0 * (n + 2.0) / (n * n) * cross),
        _report("prior18", k, sq, 4.0 * (n + 4.0 / 3.0) / (n * n) * cross),
    ]
    d = delta_scalar
    heavy = math.fsum(
        g * g * (d * v + d * d * (v - (n - 2)) / (4.0 * (d * v + n - 2)))
        for g, v in zip(gaps, values)
    )
    light = math.fsum(g * (v + (n - 2) ** 2 / 4.0) for g, v in zip(gaps, values)) / d
    reports.append(_report("prior19", k, 2.0 * sq, heavy + light))
    return reports
