import math
import sys
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from buckbounds import (
    BoundReport,
    Domain,
    Spectrum,
    assemble_forms,
    chain_bounds,
    convergence_study,
    delta_objective,
    eval_cor11,
    eval_eq112,
    eval_l2_priors,
    eval_thm11,
    eval_thm12,
    format_spectrum_csv,
    next_bound_cor11,
    next_bound_sharp,
    next_bound_sphere,
    optimize_delta,
    parse_spectrum,
    solve_buckling,
    thm11_optimal_delta,
)
from buckbounds.bounds import _largest_root, _sphere_cap
from buckbounds.errors import BracketError, BuckBoundsError, NumericalError
from buckbounds.polyrec import h_term, s_term

import oracles

EDGE = st.floats(min_value=0.3, max_value=3.0)
EDGES = st.lists(EDGE, min_size=1, max_size=2).map(tuple)
WEIGHT = st.floats(min_value=1e-6, max_value=1e6)
LEVEL = st.sampled_from([-1.0, 0.0, 1.0, math.nan])
PREFIX = st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=1, max_size=40).map(sorted)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(edges=EDGES, l=st.integers(2, 6), m=st.integers(1, 3))
def test_forms_equal_the_laplacian_expansion(edges, l, m):
    # the package builds each form from equal-order blocks by one multinomial
    # rule on intervals and rectangles; the oracle expands the Laplacian power
    # entry by entry, and both round the same rational, with the same sign
    # and in exactly symmetric matrices
    forms = assemble_forms(Domain(edges), l, m)
    reference = oracles.reference_forms(edges, l, m)
    assert len(forms.matrices) == len(reference) == l
    for ours, theirs in zip(forms.matrices, reference):
        assert np.array_equal(ours, theirs)
        assert np.array_equal(np.signbit(ours), np.signbit(theirs))
        assert np.array_equal(ours, ours.T)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    edges=st.lists(EDGE, min_size=1, max_size=3).map(tuple),
    l=st.integers(2, 6),
    data=st.data(),
    count=st.integers(1, 4),
)
def test_nested_rungs_are_direct_solves_and_never_rise(edges, l, data, count):
    # a study solves its coarser rungs from the finest rung's forms; each rung
    # must be the spectrum a direct solve gives, or fail where one fails, and
    # Rayleigh-Ritz on nested bases never lets an estimate rise; m <= 12 and
    # the basis size m**dim <= 216
    domain = Domain(edges)
    top = max(m for m in range(1, 13) if m**domain.dim <= 216)
    sizes = st.lists(st.integers(1, top), min_size=1, max_size=4, unique=True).map(sorted)
    m_list = data.draw(sizes, label="m_list")
    count = min(count, m_list[0] ** domain.dim)
    try:
        direct = tuple(solve_buckling(domain, l, m, count).values for m in m_list)
    except NumericalError:
        with pytest.raises(NumericalError):
            convergence_study(domain, l, m_list, count)
        return
    table = convergence_study(domain, l, m_list, count)
    assert table.eigenvalues == direct
    assert all(table.monotone), table.eigenvalues


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(WEIGHT, WEIGHT), min_size=1, max_size=40))
def test_optimize_delta_meets_its_kkt_conditions(pairs):
    # the minimizer of sum(d a + b / d) over non-increasing d is constant on
    # runs, each at its pooled stationary value; raising a leading part of a
    # run must not lower the objective, and the run values strictly decrease
    a, b = [p[0] for p in pairs], [p[1] for p in pairs]
    delta = list(optimize_delta(a, b))
    runs, start = [], 0
    for i in range(1, len(delta) + 1):
        if i == len(delta) or delta[i] != delta[start]:
            runs.append((start, i))
            start = i
    values = [delta[lo] for lo, _ in runs]
    assert all(left > right for left, right in zip(values, values[1:]))
    for (lo, hi), v in zip(runs, values):
        run_a, run_b = a[lo:hi], b[lo:hi]
        assert math.isclose(v, math.sqrt(math.fsum(run_b) / math.fsum(run_a)), rel_tol=1e-12)
        scale = math.fsum(run_a) + math.fsum(run_b) / v**2
        for cut in range(1, hi - lo):
            slope = math.fsum(x - y / v**2 for x, y in zip(run_a[:cut], run_b[:cut]))
            assert slope >= -1e-9 * scale


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(2, 5),
    l=st.integers(2, 5),
    first=st.floats(min_value=0.5, max_value=200.0),
    steps=st.lists(st.floats(min_value=0.0, max_value=0.9), max_size=7),
    s=st.integers(-600, 600),
)
@example(n=2, l=2, first=1.0, steps=[0.5, 0.5], s=600)
@example(n=5, l=5, first=3.0, steps=[0.9, 0.1, 0.5], s=-600)
def test_sharp_bound_is_scale_covariant(n, l, first, steps, s):
    # the square-root form is homogeneous, so scaling a prefix by c = 2**s
    # scales its bound by c, far beyond where the raw squared gaps overflow
    # or underflow.  Each eigenvalue goes a fraction <= 0.9 of the way from
    # the previous one to that one's bound, so no prefix sits on its bound.
    values = [first]
    for step in steps:
        bound = next_bound_sharp(Spectrum(values=tuple(values), n=n, l=l), len(values))
        values.append(values[-1] + step * (bound - values[-1]))
    k = len(values)
    base = next_bound_sharp(Spectrum(values=tuple(values), n=n, l=l), k)
    c = 2.0**s
    scaled = next_bound_sharp(Spectrum(values=tuple(c * v for v in values), n=n, l=l), k)
    assert scaled == pytest.approx(c * base, rel=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(2, 5),
    l=st.integers(2, 5),
    first=st.floats(min_value=0.5, max_value=200.0),
    steps=st.lists(st.floats(min_value=0.0, max_value=0.9), max_size=7),
    s=st.integers(-600, 600),
)
def test_cor11_bound_is_bitwise_scale_covariant(n, l, first, steps, s):
    # the quadratic is solved in units of a power of two near eigenvalue k,
    # so scaling the prefix by 2**s scales the bound exactly
    values = [first]
    for step in steps:
        bound = next_bound_cor11(Spectrum(values=tuple(values), n=n, l=l), len(values))
        values.append(values[-1] + step * (bound - values[-1]))
    k = len(values)
    base = next_bound_cor11(Spectrum(values=tuple(values), n=n, l=l), k)
    c = 2.0**s
    scaled = next_bound_cor11(Spectrum(values=tuple(c * v for v in values), n=n, l=l), k)
    assert scaled == c * base



def _times_power_of_two(x, e):
    # x * 2**e, or +-inf where that leaves the float range
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    n=st.integers(2, 6),
    l=st.integers(2, 6),
    values=st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=8).map(sorted),
    beyond=st.floats(min_value=0.1, max_value=2.0),
    weights=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=8, max_size=8),
    t=st.integers(0, 300),
)
@example(n=2, l=2, values=[1.0, 2.0], beyond=1.0, weights=[1.0] * 8, t=300)
@example(n=3, l=4, values=[2.0, 3.0, 5.0], beyond=0.5, weights=[2.0] * 8, t=300)
def test_euclidean_evaluators_are_scale_covariant(n, l, values, beyond, weights, t):
    # thm11, eq112 and cor11 are homogeneous of degree 2: scaling the prefix
    # and the candidate by c = 4**((l-1) t) and delta by 4**(-(l-2) t) scales
    # every report field by c**2 (to +-inf where that overflows), keeps the
    # verdict, and scales the optimal delta by 4**(-(l-2) t).  t is capped
    # where c times the candidate would overflow.
    k = len(values)
    candidate = values[-1] * (1.0 + beyond)
    t = min(t, (1020 - math.frexp(candidate)[1]) // (2 * (l - 1)))
    up = 2 * (l - 1) * t
    delta = sorted(weights[:k], reverse=True)
    spectrum = Spectrum(values=tuple(values), n=n, l=l)
    scaled = Spectrum(values=tuple(math.ldexp(v, up) for v in values), n=n, l=l)
    scaled_candidate = math.ldexp(candidate, up)
    scaled_delta = [math.ldexp(d, -2 * (l - 2) * t) for d in delta]
    pairs = [
        (eval_thm11(spectrum, k, candidate, delta), eval_thm11(scaled, k, scaled_candidate, scaled_delta)),
        (eval_eq112(spectrum, k, candidate), eval_eq112(scaled, k, scaled_candidate)),
        (eval_cor11(spectrum, k, candidate), eval_cor11(scaled, k, scaled_candidate)),
    ]
    assume(all(min(abs(base.lhs), abs(base.rhs)) >= 1.0 for base, _ in pairs))
    for base, report in pairs:
        assert report.satisfied == base.satisfied, report.method
        assert report.lhs == _times_power_of_two(base.lhs, 2 * up)
        # The powers lam**((l-2)/(l-1)) and lam**(1/(l-1)) are taken of the
        # raw eigenvalues, and pow with an inexact exponent is not exactly
        # covariant; at l = 2 they are 1 and lam, and cor11 has none.
        exact = l == 2 or report.method == "cor11"
        size = max(abs(base.lhs), abs(base.rhs))
        for name in ("rhs", "residual", "tolerance"):
            got = getattr(report, name)
            expected = _times_power_of_two(getattr(base, name), 2 * up)
            if exact or math.isinf(expected):
                assert got == expected, (report.method, name)
            else:
                scale = _times_power_of_two(size, 2 * up)
                assert abs(got - expected) <= 1e-12 * scale, (report.method, name)
    base_delta = thm11_optimal_delta(spectrum, k, candidate).values
    scaled_delta = thm11_optimal_delta(scaled, k, scaled_candidate).values
    expected = [math.ldexp(d, -2 * (l - 2) * t) for d in base_delta]
    if l == 2:
        assert scaled_delta == tuple(expected)
    else:
        assert scaled_delta == pytest.approx(expected, rel=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    l=st.integers(2, 8),
    values=st.lists(
        st.floats(min_value=5e-324, allow_infinity=False), min_size=1, max_size=20
    ).map(sorted),
)
def test_spectrum_csv_round_trips(n, l, values):
    # repr writes the shortest text that reads back as the same float
    spectrum = Spectrum(values=tuple(values), n=n, l=l)
    parsed = parse_spectrum(format_spectrum_csv(spectrum))
    assert (parsed.values, parsed.n, parsed.l, parsed.provenance) == (
        spectrum.values,
        n,
        l,
        "file",
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(l=st.integers(2, 6), values=PREFIX, beyond=st.floats(min_value=0.0, max_value=10.0))
def test_chebyshev_pairing_puts_the_sharp_form_inside_cor11(l, values, beyond):
    # with g = x - lam nonincreasing and h = lam**((l-2)/(l-1)),
    # c = lam**(1/(l-1)) nondecreasing along the prefix,
    # sum g**2 sum g lam - sum g**2 h sum g c
    #   = 1/2 sum_ij g_i g_j (h_j - h_i)(g_i c_j - g_j c_i) >= 0,
    # so every candidate of the square-root form satisfies cor11
    x = values[-1] * (1.0 + beyond)
    gaps = [x - v for v in values]
    heavy = [v ** ((l - 2) / (l - 1)) for v in values]
    light = [v ** (1 / (l - 1)) for v in values]
    squares = math.fsum(g * g for g in gaps)
    paired = math.fsum(g * g * h for g, h in zip(gaps, heavy)) * math.fsum(
        g * c for g, c in zip(gaps, light)
    )
    assert paired <= squares * math.fsum(g * v for g, v in zip(gaps, values)) * (1.0 + 1e-12)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    values=PREFIX,
    data=st.data(),
    beyond=st.floats(min_value=1e-6, max_value=10.0),
)
def test_sphere_cap_bounds_the_constant_delta_form(values, data, beyond):
    # 2 sum g**2 <= lhs and the optimized rhs <= 2 sqrt(sum g**2 s sum g c),
    # so a candidate of the spherical form has
    # (sum g**2)**2 <= sum g**2 s sum g c; above the cap this fails, for
    # nondecreasing s (the Chebyshev pairing) and for s in any order
    k = len(values)
    s_values = data.draw(st.lists(WEIGHT, min_size=k, max_size=k), label="s")
    if data.draw(st.booleans(), label="sorted s"):
        s_values.sort()
    light = sorted(data.draw(st.lists(WEIGHT, min_size=k, max_size=k), label="light"))
    cap = _sphere_cap(values, s_values, light)
    x = max(cap, values[-1]) * (1.0 + beyond)
    gaps = [x - v for v in values]
    squares = math.fsum(g * g for g in gaps)
    relaxed = math.fsum(g * g * s for g, s in zip(gaps, s_values)) * math.fsum(
        g * c for g, c in zip(gaps, light)
    )
    assert relaxed <= squares * squares * (1.0 + 1e-9)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    start=st.floats(min_value=1e-3, max_value=1e3),
    span=st.floats(min_value=-1.0, max_value=10.0),
    cuts=st.lists(st.floats(min_value=0.0, max_value=11.0), max_size=6),
    levels=st.lists(LEVEL, min_size=7, max_size=7),
)
# a window that opens just above start and closes before the first probe
@example(start=1.0, span=3.0, cuts=[1e-7, 1e-4], levels=[1.0, -1.0] + [1.0] * 5)
@example(start=1.0, span=3.0, cuts=[1e-4], levels=[0.0] + [1.0] * 6)
# several sign changes, nan probes between them, and none at all
@example(start=2.0, span=6.0, cuts=[1.0, 2.0, 3.0, 4.0], levels=[-1.0, 1.0, 0.0, 1.0, math.nan] + [1.0] * 2)
@example(start=2.0, span=6.0, cuts=[], levels=[1.0] * 7)
def test_largest_root_walk_matches_the_full_scan(start, span, cuts, levels):
    # the walk down from the top probe meets the last sign change first, so
    # it bisects the bracket the full upward scan keeps and evaluates no
    # probe below it
    breaks = sorted(start * 2.0**c for c in cuts)

    def step_function(x):
        return levels[bisect_right(breaks, x)]

    calls = []

    def counted(x):
        calls.append(x)
        return step_function(x)

    limit = start * 2.0**span
    root, probes, bracket, bisections = oracles.full_scan_root(step_function, start, limit)
    if root is None:
        with pytest.raises(BracketError):
            _largest_root(counted, start, limit)
        assert len(calls) == len(probes)
        return
    assert _largest_root(counted, start, limit) == root
    assert min(calls) == bracket[0]
    assert len(calls) == sum(p >= bracket[0] for p in probes) + bisections


def _decades(low, high):
    # positive floats m * 10**e with 1 <= m < 10 and low <= e <= high
    return st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(low, high))


@st.composite
def extreme_bound_inputs(draw):
    # A prefix at any scale from 1e-320 to 1e308, a candidate at, just above
    # or far above its last eigenvalue, and a non-increasing delta from 1e-300
    # to 1e300.
    values = [draw(_decades(-320, 307))]
    for ratio in draw(st.lists(st.sampled_from([1.0, 1.0 + 2.0**-52, 1.5, 1e3]), max_size=3)):
        values.append(min(values[-1] * ratio, sys.float_info.max))
    top = values[-1]
    candidate = draw(st.sampled_from([top, math.nextafter(top, math.inf), top * 1.5, top * 1e30]))
    weights = st.lists(_decades(-300, 299), min_size=len(values), max_size=len(values))
    delta = sorted(draw(weights), reverse=True)
    n = draw(st.sampled_from([2, 3, 10]))
    l = draw(st.sampled_from([2, 3, 5, 30, 80, 301]))
    return tuple(values), n, l, min(candidate, sys.float_info.max), tuple(delta)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=extreme_bound_inputs())
# prior19 weights that saturated to -inf and +inf, a prior19 rhs of -inf + inf,
# a thm11 rhs whose positive terms overflow in units, and a minimizing delta
# past the float range at raw scale
@example(case=((5.0, 600.0), 10, 2, 700.0, (1e300, 1e300)))
@example(case=((1e-300, 600.0), 10, 2, 700.0, (1e308, 1e308)))
@example(case=((1e300, 1.0000000000000005e300, 1e302), 2, 30, 1e302, (1e5, 1e5, 1e5)))
@example(case=((1e-320,), 2, 60, 2e-320, (1.0,)))
def test_bound_functions_keep_the_float_range_rule(case):
    # the bounds are homogeneous, so they are evaluated and solved at every
    # scale: each public bound function, and each spherical term, raises
    # only a BuckBoundsError, never a bare float exception, and what it
    # returns is finite except a report side, which may read +-inf, not nan
    values, n, l, candidate, delta = case
    spectrum = Spectrum(values=values, n=n, l=l)
    k = len(values)
    calls = [
        (eval_thm11, spectrum, k, candidate, delta),
        (eval_eq112, spectrum, k, candidate),
        (eval_cor11, spectrum, k, candidate),
        (thm11_optimal_delta, spectrum, k, candidate),
        (eval_thm12, spectrum, k, candidate, delta),
        (eval_l2_priors, spectrum, k, candidate, delta[0]),
        (next_bound_cor11, spectrum, k),
        (next_bound_sharp, spectrum, k),
        (next_bound_sphere, spectrum, k),
        (chain_bounds, values[0], 3, n, l, "cor11"),
        (chain_bounds, values[0], 3, n, l, "sharp"),
        (delta_objective, delta, values, delta[::-1]),
        *((term, l, n, v) for term in (h_term, s_term) for v in values),
    ]
    for function, *args in calls:
        try:
            result = function(*args)
        except BuckBoundsError:
            continue
        for item in result if isinstance(result, list) else [result]:
            if isinstance(item, BoundReport):
                assert not any(map(math.isnan, (item.lhs, item.rhs, item.residual))), item
            elif isinstance(item, float):
                assert math.isfinite(item), (function.__name__, args, item)
