import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buckbounds import Domain, Spectrum, assemble_forms, next_bound_sharp, optimize_delta

import oracles

EDGES = st.lists(st.floats(min_value=0.3, max_value=3.0), min_size=1, max_size=2).map(tuple)
WEIGHT = st.floats(min_value=1e-6, max_value=1e6)


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
