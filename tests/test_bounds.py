import math
import os
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buckbounds import (
    DeltaSequence,
    Domain,
    DomainViolationError,
    InfeasibleSpectrumError,
    InternalConsistencyError,
    InvalidParameterError,
    NumericalError,
    Spectrum,
    SpectrumFormatError,
    chain_bounds,
    delta_objective,
    euclidean_coefficient,
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
    read_spectrum,
    thm11_optimal_delta,
)
from buckbounds import bounds
from buckbounds.bounds import _sphere_cap, _sphere_prefix
from buckbounds.errors import BracketError
from buckbounds.polyrec import s_term

import oracles


def random_spectrum(rng, n=None, l=None, k=None):
    n = n if n is not None else int(rng.integers(2, 6))
    l = l if l is not None else int(rng.integers(2, 6))
    k = k if k is not None else int(rng.integers(1, 7))
    start = float(rng.uniform(0.5, 20.0))
    values = start + np.cumsum(rng.uniform(0.0, 10.0, size=k))
    return Spectrum(values=tuple(float(v) for v in values), n=n, l=l)


# -- spectrum parsing and validation


def test_spectrum_round_trip_preserves_floats():
    spectrum = Spectrum(values=(1.0, math.pi, 11.000000000000002), n=3, l=4)
    text = format_spectrum_csv(spectrum)
    back = parse_spectrum(text)
    assert back.values == spectrum.values
    assert (back.n, back.l) == (3, 4)
    assert back.provenance == "file"


def test_parse_spectrum_rejects_bad_input():
    with pytest.raises(SpectrumFormatError):
        parse_spectrum("")
    with pytest.raises(SpectrumFormatError):
        parse_spectrum("1.0\n2.0\n")
    with pytest.raises(SpectrumFormatError):
        parse_spectrum("# n=2 l=2\nane\n")
    with pytest.raises(SpectrumFormatError):
        parse_spectrum("# n=2 l=2\n2.0\n1.0\n")
    with pytest.raises(SpectrumFormatError):
        parse_spectrum("# n=2 l=2\n-1.0\n")


def test_read_spectrum_rejects_non_ascii(tmp_path):
    path = tmp_path / "accent.csv"
    path.write_bytes(b"# n=2 l=2\n1.0\n\xc3\xa9\n")
    with pytest.raises(SpectrumFormatError, match="not ASCII"):
        read_spectrum(str(path))


def test_read_spectrum_refuses_a_descriptor_and_leaves_it_open():
    # open() takes an integer as a file descriptor and closes it on exit
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"# n=2 l=2\n1.0\n2.0\n")
        with pytest.raises(InvalidParameterError, match="^path must be a str, bytes or"):
            read_spectrum(read_end)
        os.fstat(read_end)
    finally:
        os.close(read_end)
        os.close(write_end)


def test_spectrum_validation():
    with pytest.raises(InvalidParameterError):
        Spectrum(values=(), n=2, l=2)
    with pytest.raises(InvalidParameterError):
        Spectrum(values=(1.0,), n=2, l=1)
    with pytest.raises(InvalidParameterError):
        Spectrum(values=(1.0,), n=0, l=2)
    with pytest.raises(InvalidParameterError):
        Spectrum(values=(1.0,), n=2, l=2, provenance="guessed")
    with pytest.raises(InvalidParameterError):
        Spectrum(values=(math.inf,), n=2, l=2)


def test_delta_sequence_validation():
    assert tuple(DeltaSequence((3.0, 3.0, 1.0))) == (3.0, 3.0, 1.0)
    with pytest.raises(InvalidParameterError):
        DeltaSequence((1.0, 2.0))
    with pytest.raises(InvalidParameterError):
        DeltaSequence((1.0, 0.0))
    with pytest.raises(InvalidParameterError):
        DeltaSequence(())


# -- the dimensional coefficient


def test_coefficient_values():
    assert euclidean_coefficient(2, 2) == Fraction(10, 3)
    assert euclidean_coefficient(3, 3) == Fraction(38, 3)
    for n in range(2, 9):
        assert euclidean_coefficient(n, 2) == n + Fraction(4, 3)
        for l in range(2, 9):
            assert euclidean_coefficient(n, l) > 0


def test_coefficient_is_exact():
    value = euclidean_coefficient(5, 4)
    assert isinstance(value, Fraction)
    assert value == Fraction(6 * 16 + 3 * 5 * 4 - 14 * 4 + 8 - 3 * 5, 3)


def test_coefficient_validation():
    with pytest.raises(InvalidParameterError):
        euclidean_coefficient(1, 2)
    with pytest.raises(InvalidParameterError):
        euclidean_coefficient(2, 1)


def test_coefficient_refuses_floats_and_bools():
    # 2.0 == 2 and True == 1 compare equal to valid integers, and are refused
    for n, l in ((2.0, 2), (True, 2), (2, 2.0), (2, True)):
        with pytest.raises(InvalidParameterError):
            euclidean_coefficient(n, l)


def test_kernel_coefficient_is_the_exact_one_rounded():
    # The kernels read the coefficient as the int quotient
    # (l-1)(3n+6l-8) / 3, which Python rounds correctly, as float() of the
    # Fraction does: the two agree bit for bit, out to n near 2**63.
    for n in [*range(2, 13), 2**31 - 1, 2**62, 2**63 - 1]:
        for l in range(2, 302):
            exact = euclidean_coefficient(n, l)
            assert isinstance(exact, Fraction)
            value = bounds._coefficient(n, l)
            assert type(value) is float
            assert value == float(exact), (n, l)


# -- inequality evaluators, hand instances


def test_eval_thm11_hand_instance():
    spectrum = Spectrum(values=(1.0,), n=2, l=2)
    report = eval_thm11(spectrum, 1, 2.0, (1.0,))
    assert report.lhs == 2.0
    assert report.rhs == pytest.approx(13.0 / 3.0, rel=1e-15)
    assert report.residual == pytest.approx(-7.0 / 3.0, rel=1e-15)
    assert report.satisfied
    double = eval_thm11(Spectrum(values=(1.0, 1.0), n=2, l=2), 2, 2.0, (1.0, 1.0))
    assert double.lhs == 4.0
    assert double.rhs == pytest.approx(26.0 / 3.0, rel=1e-15)


def test_eval_report_fields():
    spectrum = Spectrum(values=(1.0, 2.0), n=2, l=2)
    report = eval_cor11(spectrum, 2, 4.0)
    assert report.method == "cor11"
    assert report.k == 2
    assert report.residual == report.lhs - report.rhs
    assert report.tolerance == 1e-9 * max(abs(report.lhs), abs(report.rhs))
    keys = list(report.to_dict())
    assert keys == ["method", "k", "lhs", "rhs", "residual", "tolerance", "satisfied"]


def test_evaluators_decide_in_units_far_from_one():
    # the raw squared gaps of (1e200, 2e200) overflow, which made every
    # residual nan and every verdict False; in units the rhs wins, and the
    # residual past the float range is -inf (prior16 and prior18 are cor11's
    # form with other constants; prior19's weights are raw, its gaps in units)
    spectrum = Spectrum(values=(1e200, 2e200), n=2, l=2)
    reports = (
        eval_thm11(spectrum, 2, 2e200, (1.0, 1.0)),
        eval_eq112(spectrum, 2, 2e200),
        eval_cor11(spectrum, 2, 2e200),
        *eval_l2_priors(spectrum, 2, 2e200),
    )
    for report in reports:
        assert report.satisfied, report.method
        assert (report.lhs, report.residual) == (math.inf, -math.inf), report.method
    assert all(math.isfinite(d) for d in thm11_optimal_delta(spectrum, 2, 2e200))
    # a delta that leaves the float range in units overflows one rhs term;
    # where the rhs is finite at raw scale, the report gives it there
    tiny = Spectrum(values=(1e-301, 2e-301), n=3, l=6)
    report = eval_thm11(tiny, 2, 3e-301, (1e-90, 1e-90))
    _, raw_rhs = oracles.thm11_sides(tiny.values, 3, 6, 2, 3e-301, (1e-90, 1e-90))
    assert report.satisfied
    assert report.rhs == raw_rhs == pytest.approx(1.9866943526380664e-271, rel=1e-15)
    assert (report.lhs, report.residual, report.tolerance) == (0.0, -raw_rhs, 1e-9 * raw_rhs)
    huge = Spectrum(values=(1e300, 1.5e300), n=3, l=6)
    report = eval_thm11(huge, 2, 2e300, (1e300, 1e300))
    assert report.satisfied
    assert (report.rhs, report.tolerance) == (math.inf, math.inf)  # inf at raw scale too


def test_thm11_rhs_past_the_float_range_in_units_is_inf():
    # every rhs term is positive and finite in units, and fsum's overflow of
    # their sum, a bare OverflowError before, is +inf; the rhs is inf at raw
    # scale too
    spectrum = Spectrum(values=(1e300, 1.0000000000000005e300, 1e302), n=2, l=30)
    report = eval_thm11(spectrum, 3, 1e302, (1e5, 1e5, 1e5))
    assert report.satisfied
    assert (report.lhs, report.rhs, report.residual) == (math.inf, math.inf, -math.inf)


def test_thm11_zero_gap_adds_nothing_where_its_delta_overflows_in_units():
    # delta = 1e300 is inf in the units of l = 30; times the zero gap it made
    # a nan rhs and a failed verdict where both sides are 0
    report = eval_thm11(Spectrum(values=(1e300,), n=2, l=30), 1, 1e300, (1e300,))
    assert (report.lhs, report.rhs, report.satisfied) == (0.0, 0.0, True)


def test_candidate_must_dominate_kth_eigenvalue():
    spectrum = Spectrum(values=(1.0, 2.0), n=2, l=2)
    with pytest.raises(InvalidParameterError):
        eval_cor11(spectrum, 2, 1.5)
    with pytest.raises(InvalidParameterError):
        eval_thm11(spectrum, 3, 5.0, (1.0, 1.0, 1.0))
    with pytest.raises(InvalidParameterError):
        eval_thm11(spectrum, 2, 5.0, (1.0,))


def test_eq112_equals_thm11_at_constant_optimal_delta():
    # the square-root form is the weighted form minimized over constant delta
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(300):
        spectrum = random_spectrum(rng)
        k = spectrum.k
        candidate = spectrum.values[-1] * float(rng.uniform(1.0, 3.0))
        if candidate == spectrum.values[-1]:
            continue
        n, l = spectrum.n, spectrum.l
        coeff = float(euclidean_coefficient(n, l))
        gaps = [candidate - v for v in spectrum.values]
        t_heavy = math.fsum(
            g * g * v ** ((l - 2) / (l - 1)) for g, v in zip(gaps, spectrum.values)
        )
        t_light = math.fsum(g * v ** (1 / (l - 1)) for g, v in zip(gaps, spectrum.values))
        star = math.sqrt(t_light / (coeff * t_heavy))
        weighted = eval_thm11(spectrum, k, candidate, (star,) * k)
        plain = eval_eq112(spectrum, k, candidate)
        scale = max(1.0, abs(plain.lhs), abs(plain.rhs))
        worst = max(worst, abs(weighted.residual - plain.residual) / scale)
    assert worst <= 1e-12


def test_thm11_at_its_optimal_delta_is_eq112_up_to_order_three():
    # b_i / a_i of the delta optimization is lam_i / (coeff g_i) at l = 2 and
    # 1 / (coeff g_i) at l = 3, both rising in i, so every index pools into
    # one constant delta: the one that gives the square-root form
    rng = np.random.default_rng(34)
    worst = 0.0
    for _ in range(300):
        for l in (2, 3):
            spectrum = random_spectrum(rng, l=l, k=int(rng.integers(1, 30)))
            k = spectrum.k
            candidate = spectrum.values[-1] * float(rng.uniform(1.001, 3.0))
            delta = thm11_optimal_delta(spectrum, k, candidate)
            weighted = eval_thm11(spectrum, k, candidate, delta)
            plain = eval_eq112(spectrum, k, candidate)
            assert weighted.lhs == plain.lhs
            worst = max(worst, abs(weighted.rhs - plain.rhs) / plain.rhs)
    assert worst <= 1e-12


def test_cor11_hand_instance():
    spectrum = Spectrum(values=(1.0, 2.0), n=2, l=2)
    report = eval_cor11(spectrum, 2, 4.0)
    assert report.lhs == 13.0
    assert report.rhs == pytest.approx(4.0 * (10.0 / 3.0) / 4.0 * 7.0, rel=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("l", [2, 3, 4])
def test_cor11_ratio_rises_to_its_weyl_limit(n, l):
    # on lam_i = i^p, p = 2(l-1)/n, with the candidate lam_(k+1), cor11's
    # lhs/rhs rises with k toward the exact limit, 0.19-0.70% below it at
    # k = 400
    limit = oracles.cor11_weyl_limit(n, l)
    assert isinstance(limit, Fraction)
    if (n, l) == (2, 2):  # p = 1 and C = 10/3: (1/3) / (10/3 * 1/6)
        assert limit == Fraction(3, 5)
    p = 2 * (l - 1) / n
    ratios = []
    for k in (25, 100, 400):
        values = tuple(i**p for i in range(1, k + 2))
        report = eval_cor11(Spectrum(values=values, n=n, l=l), k, values[k])
        ratios.append(report.lhs / report.rhs)
    assert ratios[0] < ratios[1] < ratios[2] < limit
    assert limit - ratios[2] < 0.01 * limit


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("l", [2, 3, 4])
def test_eq112_ratio_rises_to_its_weyl_limit(n, l):
    # on lam_i = i^p, p = 2(l-1)/n, with the candidate lam_(k+1), eq112's
    # lhs/rhs rises with k toward the square root of the exact limit, about
    # 0.2-0.4% below it at k = 400; at l = 2 the square-root form's heavy
    # weight is 1, and its limit is cor11's
    squared = oracles.eq112_weyl_limit_squared(n, l)
    assert isinstance(squared, Fraction)
    if l == 2:
        assert squared == oracles.cor11_weyl_limit(n, 2)
    limit = math.sqrt(squared)
    p = 2 * (l - 1) / n
    ratios = []
    for k in (25, 100, 400):
        values = tuple(i**p for i in range(1, k + 2))
        report = eval_eq112(Spectrum(values=values, n=n, l=l), k, values[k])
        ratios.append(report.lhs / report.rhs)
    assert ratios[0] < ratios[1] < ratios[2] < limit
    assert limit - ratios[2] < 0.01 * limit


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_thm11_ratio_rises_to_its_weyl_limit(n, l):
    # on lam_i = i^p, p = 2(l-1)/n, with the candidate lam_(k+1), thm11's
    # lhs/rhs at its optimal delta rises with k toward the limit, 0.17-0.36%
    # below it at k = 400; up to l = 3 that limit is eq112's
    limit = oracles.thm11_weyl_limit(n, l)
    if (n, l) == (2, 4):
        assert limit == pytest.approx(0.757379, abs=1e-6)
    p = 2 * (l - 1) / n
    ratios = []
    for k in (25, 100, 400):
        values = tuple(i**p for i in range(1, k + 2))
        spectrum = Spectrum(values=values, n=n, l=l)
        delta = thm11_optimal_delta(spectrum, k, values[k])
        report = eval_thm11(spectrum, k, values[k], delta)
        ratios.append(report.lhs / report.rhs)
    assert ratios[0] < ratios[1] < ratios[2] < limit
    assert limit - ratios[2] < 0.01 * limit


def test_readme_weyl_limit_table():
    # every row of the README's r_inf table, at n <= 10 and l <= 6, is the
    # three limits rounded to four places
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Large-k limits of the inequalities\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| (\d+) \| (\d+) \| (\S+) \| (\S+) \| (\S+) \|$", table, re.MULTILINE)
    expected = []
    for n in range(2, 11):
        for l in range(2, 7):
            limits = (
                oracles.thm11_weyl_limit(n, l),
                math.sqrt(oracles.eq112_weyl_limit_squared(n, l)),
                oracles.cor11_weyl_limit(n, l),
            )
            expected.append((str(n), str(l), *(f"{float(r):.4f}" for r in limits)))
    assert rows == expected


# -- weight optimization


def test_optimize_delta_unconstrained_case():
    delta = optimize_delta((1.0, 4.0), (1.0, 1.0))
    assert tuple(delta) == (1.0, 0.5)


def test_optimize_delta_pooled_case():
    delta = optimize_delta((4.0, 1.0), (1.0, 1.0))
    pooled = math.sqrt(2.0 / 5.0)
    assert tuple(delta) == (pooled, pooled)


def test_optimize_delta_flat_case():
    assert tuple(optimize_delta((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))) == (1.0, 1.0, 1.0)


def test_optimize_delta_never_loses_to_any_feasible_delta():
    rng = np.random.default_rng(32)
    for _ in range(2000):
        k = int(rng.integers(1, 7))
        a = rng.uniform(0.1, 10.0, size=k)
        b = rng.uniform(0.1, 10.0, size=k)
        best = optimize_delta(a, b)
        optimum = delta_objective(best, a, b)
        steps = rng.uniform(0.0, 2.0, size=k)
        steps[0] += 1e-3
        rival = tuple(np.cumsum(steps[::-1])[::-1])
        assert optimum <= delta_objective(rival, a, b) * (1.0 + 1e-12)


def test_optimize_delta_matches_partition_enumeration():
    rng = np.random.default_rng(33)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        a = tuple(float(v) for v in rng.uniform(0.1, 10.0, size=k))
        b = tuple(float(v) for v in rng.uniform(0.1, 10.0, size=k))
        value = delta_objective(optimize_delta(a, b), a, b)
        assert value == pytest.approx(oracles.partition_min_objective(a, b), rel=1e-12)


def test_optimize_delta_matches_grid_search():
    a = (3.0, 1.0, 0.5)
    b = (0.25, 1.0, 2.0)
    ours = delta_objective(optimize_delta(a, b), a, b)
    _, reference = oracles.grid_search_delta(a, b)
    assert ours == pytest.approx(reference, rel=1e-10)


def test_optimize_delta_output_is_feasible():
    rng = np.random.default_rng(34)
    for _ in range(300):
        k = int(rng.integers(1, 9))
        delta = optimize_delta(rng.uniform(0.01, 50.0, size=k), rng.uniform(0.01, 50.0, size=k))
        values = tuple(delta)
        assert all(v > 0.0 for v in values)
        assert all(x >= y for x, y in zip(values, values[1:]))


def test_optimize_delta_validation():
    with pytest.raises(InvalidParameterError):
        optimize_delta((), ())
    with pytest.raises(InvalidParameterError):
        optimize_delta((1.0,), (1.0, 2.0))
    with pytest.raises(InvalidParameterError):
        optimize_delta((0.0,), (1.0,))


def test_optimize_delta_past_the_float_range_is_a_numerical_error():
    # valid weights whose minimizer sqrt(b / a) is inf, then 0, in binary64
    for a, b in (((1e-300,), (1e300,)), ((1e300,), (1e-300,))):
        with pytest.raises(NumericalError, match="^the minimizing delta leaves the float range$"):
            optimize_delta(a, b)


def test_delta_objective_checks_its_input():
    # unchecked, these would raise a bare TypeError and ZeroDivisionError,
    # and return nan and inf
    for delta, a, b, message in (
        ([1.0], ["x"], [1.0], "^weights must be numeric and within the float range$"),
        ([0.0], [1.0], [1.0], "^delta entries must be positive finite, got 0.0$"),
        ([1.0], [math.nan], [1.0], "^weights must be positive finite, got nan$"),
    ):
        with pytest.raises(InvalidParameterError, match=message):
            delta_objective(delta, a, b)
    # a term past the float range, and fsum's intermediate overflow
    for delta, a, b in (([1e308], [1e308], [1.0]), ([1e308, 1e308], [1.0, 1.0], [1.0, 1.0])):
        with pytest.raises(NumericalError, match="^the objective leaves the float range$"):
            delta_objective(delta, a, b)
    # delta need not be monotone: rival deltas are scored too
    assert delta_objective((1.0, 2.0), (1.0, 1.0), (1.0, 2.0)) == 5.0


def test_delta_objective_refuses_mismatched_lengths():
    with pytest.raises(InvalidParameterError, match="^objective needs matching lengths$"):
        delta_objective((1.0, 1.0), (1.0,), (1.0,))
    with pytest.raises(InvalidParameterError, match="^objective needs matching lengths$"):
        delta_objective((1.0,), (1.0,), (1.0, 2.0))


def test_thm11_optimal_delta_beats_constant_choices():
    rng = np.random.default_rng(35)
    for _ in range(200):
        spectrum = random_spectrum(rng)
        k = spectrum.k
        candidate = spectrum.values[-1] * float(rng.uniform(1.0001, 2.0))
        best = thm11_optimal_delta(spectrum, k, candidate)
        tuned = eval_thm11(spectrum, k, candidate, best)
        for scale in (0.5, 1.0, 2.0):
            flat = eval_thm11(spectrum, k, candidate, (scale,) * k)
            assert tuned.rhs <= flat.rhs * (1.0 + 1e-12)


def test_thm11_optimal_delta_handles_zero_gaps():
    spectrum = Spectrum(values=(1.0, 2.0, 2.0), n=2, l=2)
    delta = thm11_optimal_delta(spectrum, 3, 2.0)
    values = tuple(delta)
    assert len(values) == 3
    assert values[1] == values[2]
    flat = thm11_optimal_delta(Spectrum(values=(2.0, 2.0), n=2, l=2), 2, 2.0)
    assert tuple(flat) == (1.0, 1.0)


def test_thm11_optimal_delta_underflowed_weight_is_a_numerical_error():
    # the units weight g**2 coeff h of the subnormal eigenvalue underflows to
    # 0; optimize_delta's input check refused it as a usage error
    spectrum = Spectrum(values=(5e-324, 1e300), n=2, l=30)
    with pytest.raises(NumericalError, match="^the minimizing delta leaves the float range$"):
        thm11_optimal_delta(spectrum, 2, 1.5e300)


def test_thm11_optimal_delta_past_the_float_range_at_raw_scale():
    # the minimizer is finite in units, and scaling it back by 2**tilt
    # passes the float range, where math.ldexp raised a bare OverflowError
    spectrum = Spectrum(values=(1e-320,), n=2, l=60)
    with pytest.raises(NumericalError, match="^the minimizing delta leaves the float range$"):
        thm11_optimal_delta(spectrum, 1, 2e-320)


# -- next-eigenvalue solvers, Euclidean


def test_cor11_first_bound_is_exact():
    spectrum = Spectrum(values=(1.0,), n=2, l=2)
    assert next_bound_cor11(spectrum, 1) == pytest.approx(13.0 / 3.0, rel=1e-15)
    for n in (2, 3, 5):
        for l in (2, 3, 4):
            big_c = 4.0 * float(euclidean_coefficient(n, l)) / (n * n)
            one = Spectrum(values=(7.0,), n=n, l=l)
            assert next_bound_cor11(one, 1) == pytest.approx(7.0 * (1.0 + big_c), rel=1e-13)


def test_cor11_matches_quadratic_oracle():
    rng = np.random.default_rng(36)
    for _ in range(200):
        spectrum = random_spectrum(rng)
        k = spectrum.k
        try:
            ours = next_bound_cor11(spectrum, k)
        except InfeasibleSpectrumError:
            continue
        reference = oracles.yang_quadratic_bound(spectrum.values, k, spectrum.n, spectrum.l)
        assert ours == pytest.approx(reference, rel=1e-12)


def test_cor11_two_gap_instance():
    spectrum = Spectrum(values=(1.0, 2.0), n=2, l=2)
    expected = (16.0 + math.sqrt(256.0 - 520.0 / 3.0)) / 4.0
    assert next_bound_cor11(spectrum, 2) == pytest.approx(expected, rel=1e-14)


def test_cor11_rejects_non_spectrum_prefix():
    stretched = Spectrum(values=(1.0, 100.0), n=2, l=2)
    with pytest.raises(InfeasibleSpectrumError):
        next_bound_cor11(stretched, 2)


def test_cor11_rejects_a_largest_root_below_eigenvalue_k():
    # the discriminant is positive, but both roots lie below 8.15
    prefix = Spectrum(values=(4.7, 5.0, 8.15), n=7, l=2)
    expected = r"quadratic form fails at eigenvalue 3 = 8.15 \(relative residual 0.000205"
    with pytest.raises(InfeasibleSpectrumError, match=expected):
        next_bound_cor11(prefix, 3)


def test_cor11_rejects_eigenvalue_k_below_the_smaller_root():
    # the k=1 bound from 3.85 is 147.6, and eval_cor11 fails at 395.1; the
    # roots of the k=2 quadratic are 401.96 and 7443.8
    first = Spectrum(values=(3.8501561413836063,), n=2, l=5)
    assert next_bound_cor11(first, 1) < 395.08892975002993
    assert not eval_cor11(first, 1, 395.08892975002993).satisfied
    prefix = Spectrum(values=(3.8501561413836063, 395.08892975002993), n=2, l=5)
    with pytest.raises(InfeasibleSpectrumError, match="relative residual 0.0153"):
        next_bound_cor11(prefix, 2)


@pytest.mark.parametrize("n", [100, 1000, 10**5])
def test_cor11_accepts_eigenvalue_k_at_a_root_of_its_quadratic(n):
    # lambda_1 is the smaller root of the k=1 quadratic, and (1 + C) lambda_1
    # that of the k=2 one; the two roots close in as n grows, and the
    # larger one keeps about 1e-16 / C**2 of relative accuracy
    big_c = bounds._quadratic_constant(n, 2)
    rel = 1e-14 / (big_c * big_c)
    rng = random.Random(n)
    for _ in range(50):
        x = rng.uniform(0.5, 2.0)
        bound = next_bound_cor11(Spectrum(values=(x,), n=n, l=2), 1)
        assert bound == pytest.approx((1.0 + big_c) * x, rel=rel)
        expected = [x, (1.0 + big_c) * x, (1.0 + big_c + big_c * big_c / 2.0) * x]
        assert chain_bounds(x, 3, n, 2, "cor11") == pytest.approx(expected, rel=rel)


def test_solvers_reject_every_prefix_their_own_form_refuses():
    # With a zero last gap, the form at eigenvalue k is its (k-1)-th
    # inequality at candidate lambda_k, so the solver refuses exactly the
    # prefixes whose evaluator reports that inequality unsatisfied, at every
    # scale.  The draw reaches cor11 prefixes whose lambda_k lies below the
    # smaller root of its quadratic.
    rng = random.Random(3)
    refused = {next_bound_cor11: 0, next_bound_sharp: 0}
    mismatches = []
    for _ in range(3000):
        n, l, k = rng.randint(2, 10), rng.randint(2, 6), rng.randint(2, 12)
        scale = 10.0 ** rng.uniform(-100, 100)
        values = tuple(sorted(scale * rng.uniform(0.1, 1.0) for _ in range(k)))
        below = Spectrum(values=values[:-1], n=n, l=l)
        for evaluate, solve in ((eval_cor11, next_bound_cor11), (eval_eq112, next_bound_sharp)):
            fails = not evaluate(below, k - 1, values[-1]).satisfied
            refuses = False
            try:
                solve(Spectrum(values=values, n=n, l=l), k)
            except InfeasibleSpectrumError:
                refuses = True
            except Exception:  # any other failure is not a refusal
                pass
            refused[solve] += refuses
            if fails != refuses:
                mismatches.append((solve.__name__, values, n, l))
    assert mismatches == []
    assert min(refused.values()) > 500, refused


def test_cor11_scale_covariance():
    rng = np.random.default_rng(37)
    for _ in range(100):
        spectrum = random_spectrum(rng, k=int(rng.integers(1, 5)))
        factor = float(rng.uniform(0.1, 50.0))
        scaled = Spectrum(
            values=tuple(factor * v for v in spectrum.values), n=spectrum.n, l=spectrum.l
        )
        try:
            base = next_bound_cor11(spectrum, spectrum.k)
        except InfeasibleSpectrumError:
            continue
        assert next_bound_cor11(scaled, scaled.k) == pytest.approx(factor * base, rel=1e-12)


def test_cor11_is_exact_at_any_float_scale():
    # the quadratic is homogeneous, so scaling by a power of two scales the
    # bound exactly, far beyond where the squares overflow or underflow
    for values in ((1.0,), (1.0, 2.0), (3.0, 4.5, 7.25, 8.0)):
        base = next_bound_cor11(Spectrum(values=values, n=3, l=3), len(values))
        for s in (2.0**-700, 2.0**700):
            scaled = Spectrum(values=tuple(s * v for v in values), n=3, l=3)
            assert next_bound_cor11(scaled, len(values)) == s * base
    assert next_bound_cor11(Spectrum(values=(1e200,), n=2, l=2), 1) == pytest.approx(
        13.0 / 3.0 * 1e200, rel=1e-15
    )
    tiny = next_bound_cor11(Spectrum(values=(1e-200, 2e-200), n=2, l=2), 2)
    expected = next_bound_cor11(Spectrum(values=(1.0, 2.0), n=2, l=2), 2) * 1e-200
    assert tiny == pytest.approx(expected, rel=1e-14)
    with pytest.raises(NumericalError):
        next_bound_cor11(Spectrum(values=(1e308,), n=2, l=2), 1)


def test_solvers_bound_subnormal_prefixes():
    # the old cor11 scale ldexp(1.0, -frexp(lambda_k)[1]) overflowed for a
    # subnormal eigenvalue k, and both solvers raised OverflowError
    for values, n, l in (((5e-324,), 2, 2), ((1e-310, 2e-310), 3, 3)):
        spectrum = Spectrum(values=values, n=n, l=l)
        for solver in (next_bound_cor11, next_bound_sharp):
            bound = solver(spectrum, len(values))
            assert math.isfinite(bound) and bound >= values[-1], (solver, values)


def test_sharp_first_bound_matches_closed_form():
    # k = 1 gives (1 + C) lambda_1 (13/3 at n=2, l=2) at any scale: the form is
    # homogeneous of degree 2 and is evaluated on an exactly rescaled prefix,
    # so its squared gaps do not overflow or underflow at 1e200 or 1e-200
    for n, l in ((2, 2), (3, 4), (5, 6)):
        one_plus_c = 1.0 + 4.0 * float(euclidean_coefficient(n, l)) / (n * n)
        for value in (1.0, 1e200, 1e-200):
            bound = next_bound_sharp(Spectrum(values=(value,), n=n, l=l), 1)
            assert bound == pytest.approx(one_plus_c * value, rel=1e-12), (n, l, value)
    base = next_bound_sharp(Spectrum(values=(1.0, 2.0), n=2, l=2), 2)
    for value in (1e-200, 1e200):
        # the lambda_k check runs in the rescaled units too: at 1e200 its raw
        # squared gaps overflow
        bound = next_bound_sharp(Spectrum(values=(value, 2.0 * value), n=2, l=2), 2)
        assert bound == pytest.approx(base * value, rel=1e-12), value


def test_sharp_never_exceeds_cor11():
    rng = np.random.default_rng(38)
    checked = 0
    for _ in range(300):
        spectrum = random_spectrum(rng)
        k = spectrum.k
        try:
            quad = next_bound_cor11(spectrum, k)
            sharp = next_bound_sharp(spectrum, k)
        except (InfeasibleSpectrumError, BracketError):
            continue
        assert sharp <= quad * (1.0 + 1e-9)
        checked += 1
    assert checked > 150


def test_sharp_matches_scan_oracle():
    spectrum = Spectrum(values=(2.0, 5.0, 7.0), n=3, l=2)
    ours = next_bound_sharp(spectrum, 3)
    coeff = float(euclidean_coefficient(3, 2))

    def shortfall(x):
        gaps = [x - v for v in spectrum.values]
        lhs = math.fsum(g * g for g in gaps)
        t_heavy = math.fsum(g * g for g in gaps)
        t_light = math.fsum(g * v for g, v in zip(gaps, spectrum.values))
        return lhs - (2.0 * math.sqrt(coeff) / 3.0) * math.sqrt(t_heavy * t_light)

    reference = oracles.scan_bisect_root(shortfall, 7.0)
    assert ours == pytest.approx(reference, rel=1e-11)


def test_sharp_bound_matches_full_range_scan():
    # The solver scans only up to a limit derived from the inequality; the
    # oracle scans 64 doublings.  Cases where that limit is tight: k = 1
    # (the limit is the bound), n = 8..12 at l = 2 (C < 1) and k = 40.
    rng = np.random.default_rng(45)
    cases = [(int(rng.integers(2, 13)), int(rng.integers(2, 7)), 1, 1.0) for _ in range(20)]
    cases += [(int(rng.integers(8, 13)), 2, int(rng.integers(2, 8)), 0.2) for _ in range(20)]
    cases += [(int(rng.integers(2, 6)), int(rng.integers(2, 5)), 40, 1.0) for _ in range(20)]
    checked = 0
    for n, l, k, spread in cases:
        start = float(rng.uniform(0.5, 20.0))
        gaps = rng.uniform(0.0, spread * start, size=k - 1)
        lams = tuple(float(v) for v in start + np.cumsum(np.concatenate([[0.0], gaps])))
        try:
            ours = next_bound_sharp(Spectrum(values=lams, n=n, l=l), k)
        except InfeasibleSpectrumError:
            continue

        def shortfall(x):
            lhs, rhs = oracles.eq112_sides(lams, n, l, k, x)
            return lhs - rhs

        reference = oracles.scan_bisect_root(shortfall, lams[-1])
        assert ours == pytest.approx(reference, rel=1e-12)
        checked += 1
    assert checked > 50


def test_sharp_scale_covariance():
    spectrum = Spectrum(values=(1.0, 3.0, 4.5), n=2, l=3)
    base = next_bound_sharp(spectrum, 3)
    scaled = Spectrum(values=(10.0, 30.0, 45.0), n=2, l=3)
    assert next_bound_sharp(scaled, 3) == pytest.approx(10.0 * base, rel=1e-11)


def test_sharp_rejects_stretched_spectrum_as_infeasible():
    stretched = Spectrum(values=(1.0, 100.0), n=2, l=2)
    with pytest.raises(InfeasibleSpectrumError):
        next_bound_sharp(stretched, 2)


def test_sharp_rejects_prefix_infeasible_at_its_last_eigenvalue():
    # the shortfall at lambda_40 is +1.6e6; probing used to end in BracketError
    spectrum = Spectrum(values=tuple(float(i * i + 10) for i in range(1, 41)), n=3, l=3)
    assert not eval_eq112(spectrum, 40, spectrum.values[-1]).satisfied
    with pytest.raises(InfeasibleSpectrumError):
        next_bound_sharp(spectrum, 40)


def test_sharp_lambda_k_check_is_relative_at_every_scale():
    # 71.5 lies far beyond the k=1 bound from 1.0 of the sharp and spherical
    # solvers, at every scale.  The spherical form is not homogeneous, so its
    # residual moves with the scale.
    cases = (
        (next_bound_sharp, 3, 3, [(s, "0.717") for s in (1.0, 1e-14, 2.0**-600, 1e200)]),
        (next_bound_sphere, 2, 2, [(1.0, "0.8809"), (1e-6, "0.99988"), (1e-9, "0.999996")]),
    )
    for solve, n, l, scales in cases:
        for scale, residual in scales:
            spectrum = Spectrum(values=(scale, 71.5 * scale), n=n, l=l)
            with pytest.raises(InfeasibleSpectrumError, match=f"relative residual {residual}"):
                solve(spectrum, 2)


def test_sharp_scan_ends_when_its_limit_overflows():
    # the limit 1e308 * (1 + C) is inf; the scan must still end, at the
    # largest float
    with pytest.raises(BracketError, match=r"and 1\.7976931348623157e\+308;"):
        next_bound_sharp(Spectrum(values=(1e308,), n=2, l=2), 1)


def test_scan_and_bisection_stay_in_the_float_range():
    # the last probe start * step**j and the midpoint 0.5 * (lo + hi) both
    # overflowed near the largest float, so f saw inf and inf came back
    seen = []

    def recording(x):
        seen.append(x)
        return x - 1.75e308

    root = bounds._largest_root(recording, 1.7e308, 1e308)
    assert seen and all(math.isfinite(x) for x in seen)
    assert math.isfinite(root)
    assert root == pytest.approx(1.75e308, rel=1e-12)
    with pytest.raises(BracketError, match=r"and 1\.7976931348623157e\+308;"):
        bounds._largest_root(lambda x: 1.0, 1.7e308, 1e308)


def test_scan_from_the_smallest_subnormal_to_the_largest_float_ends():
    # step**j leaves the float range at j = 1024 * PROBES_PER_DOUBLING,
    # halfway up a scan from 5e-324 to 1.7e308, and used to raise a bare
    # OverflowError there
    seen = []

    def recording(x):
        seen.append(x)
        return x - 1.0

    root = bounds._largest_root(recording, 5e-324, 1.7e308)
    assert abs(root - 1.0) <= 1e-13
    assert seen and all(math.isfinite(x) for x in seen)
    assert max(seen) > 1.7e308


@pytest.mark.parametrize("l", [2, 5, 30])
def test_sphere_scan_past_the_float_range_names_a_finite_candidate(l):
    # the weights overflow before the scan ends; the error used to name inf
    with pytest.raises(NumericalError, match=r"weights at 1\.7976931348623157e\+308 leave"):
        next_bound_sphere(Spectrum(values=(1e300, 1.1e300), n=6, l=l), 1)


def _sharp_cap(spectrum, k):
    # where the sharp scan ends: _scan_limit with u = C lambda in the
    # Euclidean units of eigenvalue k, scaled back
    values = spectrum.values[:k]
    shift, scaled, gaps = bounds._euclidean_units(values, spectrum.l, values[-1])
    big_c = bounds._quadratic_constant(spectrum.n, spectrum.l)
    limit = bounds._scan_limit(scaled[-1], gaps, [big_c * v for v in scaled])
    return bounds._ldexp(limit, -shift)


def test_sharp_cap_bounds_the_oracle_and_is_the_cor11_bound():
    # The oracle scans 64 doublings, so it sees every probe the cap drops;
    # where cor11 has a bound the cap is that bound.
    rng = np.random.default_rng(49)
    checked = with_cor11 = 0
    for _ in range(60):
        n = int(rng.integers(2, 13))
        l = int(rng.integers(2, 7))
        k = int(rng.integers(1, 12))
        start = float(rng.uniform(0.5, 20.0))
        gaps = rng.uniform(0.0, float(rng.choice([0.2, 1.0])) * start, size=k - 1)
        lams = tuple(float(v) for v in start + np.cumsum(np.concatenate([[0.0], gaps])))
        spectrum = Spectrum(values=lams, n=n, l=l)
        cap = _sharp_cap(spectrum, k)
        try:
            assert cap == pytest.approx(next_bound_cor11(spectrum, k), rel=1e-12)
            with_cor11 += 1
        except InfeasibleSpectrumError:
            pass
        try:
            next_bound_sharp(spectrum, k)
        except InfeasibleSpectrumError:
            continue

        def shortfall(x):
            lhs, rhs = oracles.eq112_sides(lams, n, l, k, x)
            return lhs - rhs

        assert cap >= oracles.scan_bisect_root(shortfall, lams[-1]) * (1.0 - 1e-12)
        checked += 1
    assert checked > 30 and with_cor11 > 40


def test_sharp_cap_is_finite_without_a_cor11_root():
    # the cor11 quadratic of (1, 100) at n = 8 has a negative discriminant;
    # the cap keeps its first term, max(u) - mean(e) above lambda_k
    spectrum = Spectrum(values=(1.0, 100.0), n=8, l=2)
    with pytest.raises(InfeasibleSpectrumError, match="quadratic form fails at eigenvalue 2"):
        next_bound_cor11(spectrum, 2)
    big_c = bounds._quadratic_constant(8, 2)
    assert _sharp_cap(spectrum, 2) == pytest.approx(100.0 * (1.0 + big_c) - 49.5, rel=1e-15)


def test_sphere_rejects_prefix_infeasible_at_its_last_eigenvalue():
    # the k=1 bound from 30.0 is 31.85, so 41.0 cannot be eigenvalue 2;
    # probing used to end in BracketError
    assert next_bound_sphere(Spectrum(values=(30.0,), n=5, l=4), 1) < 41.0
    with pytest.raises(InfeasibleSpectrumError):
        next_bound_sphere(Spectrum(values=(30.0, 41.0), n=5, l=4), 2)


def test_sphere_overflow_is_a_numerical_error():
    # at n=2, l=2 the bound from 1e80 is about 1e160, and the probe weights
    # g**2 * s_term overflow on the way there
    for n in (2, 3):
        with pytest.raises(NumericalError, match="float range"):
            next_bound_sphere(Spectrum(values=(1e80,), n=n, l=2), 1)


def test_sphere_terms_past_the_float_range_are_a_numerical_error():
    # an admissible prefix whose h_term overflows leaked OverflowError
    spectrum = Spectrum(values=(1e300, 1.1e300), n=10, l=301)
    with pytest.raises(NumericalError, match="float range"):
        next_bound_sphere(spectrum, 2)
    with pytest.raises(NumericalError, match="float range"):
        eval_thm12(spectrum, 2, 1.2e300, (1.0, 1.0))


def test_sphere_overflowed_pooled_sum_is_a_numerical_error():
    # each weight is finite, but the pooled block's sum of g**2 * s_term
    # overflows, which gave delta 0 and a ZeroDivisionError
    spectrum = Spectrum(
        values=(3.4673685045253094e61, 3.814105354977841e61, 4.5075790558829025e61), n=3, l=2
    )
    with pytest.raises(NumericalError, match="float range"):
        next_bound_sphere(spectrum, 3)


def test_sphere_infinite_pooled_delta_is_a_numerical_error(monkeypatch):
    # a pooled block whose sum of b overflows gets delta inf (nan when its
    # sum of a overflows too); neither may reach the shortfall
    for weight in (math.inf, math.nan):
        monkeypatch.setattr(
            bounds, "_pool_adjacent_violators", lambda a, b, weight=weight: [weight] * len(a)
        )
        with pytest.raises(NumericalError, match="float range"):
            next_bound_sphere(Spectrum(values=(9.0, 16.0), n=3, l=3), 2)


def test_chain_bounds_known_prefix():
    chain = chain_bounds(1.0, 4, 2, 2, "cor11")
    assert chain[0] == 1.0
    assert chain[1] == pytest.approx(13.0 / 3.0, rel=1e-15)
    assert chain[2] == pytest.approx(89.0 / 9.0, rel=1e-14)
    assert all(b > a for a, b in zip(chain, chain[1:]))
    sharp_chain = chain_bounds(1.0, 4, 2, 2, "sharp")
    for quad, sharp in zip(chain, sharp_chain):
        assert sharp <= quad * (1.0 + 1e-9)


def test_chain_entries_do_not_bound_every_feasible_spectrum():
    # entry j is the bound for the chain so far only: (1, 1.8) satisfies cor11
    # at k=1, yet its bound for the third eigenvalue exceeds the chain's
    chain = chain_bounds(1.0, 3, 5, 2, "cor11")
    assert chain == pytest.approx([1.0, 2.013333333333, 2.526756], rel=1e-6)
    prefix = Spectrum(values=(1.0, 1.8), n=5, l=2)
    assert eval_cor11(prefix, 1, 1.8).satisfied
    beyond = next_bound_cor11(prefix, 2)
    assert beyond == pytest.approx(2.534798, rel=1e-6)
    assert beyond > chain[2]


def _stepwise_chain(lambda1, count, n, l, method):
    # chain_bounds rebuilt from the public solvers on Spectrum prefixes
    solver = {"cor11": next_bound_cor11, "sharp": next_bound_sharp}[method]
    values = [lambda1]
    for j in range(1, count):
        nxt = solver(Spectrum(values=tuple(values), n=n, l=l), j)
        if nxt <= values[-1]:
            raise InternalConsistencyError(
                f"chain stalled at step {j}: bound {nxt} does not exceed {values[-1]}"
            )
        values.append(nxt)
    return values


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


# sharp chains from 50.0 that raise BracketError
DEFECT_CHAINS = ((3, 4), (4, 4), (4, 3), (5, 5))


def test_chain_bounds_equals_the_public_stepwise_chain():
    rng = np.random.default_rng(36)
    cases = [("sharp", 50.0, n, l, 40) for n, l in DEFECT_CHAINS]
    for method in ("cor11", "sharp"):
        for start in (1.0, 12.5, 50.0, 1e-300, 1e200):
            for _ in range(3):
                n, l = int(rng.integers(2, 9)), int(rng.integers(2, 7))
                cases.append((method, start, n, l, 40 if method == "cor11" else 12))
    raised = set()
    for method, start, n, l, count in cases:
        got = _outcome(chain_bounds, start, count, n, l, method)
        assert got == _outcome(_stepwise_chain, start, count, n, l, method), (method, start, n, l)
        if isinstance(got, tuple):
            raised.add(got[0])
    assert BracketError in raised


def test_chain_bounds_builds_no_spectrum(monkeypatch):
    built = []
    init = Spectrum.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Spectrum, "__init__", counted)
    Spectrum(values=(1.0,), n=2, l=2)
    assert len(built) == 1
    for method in ("cor11", "sharp"):
        assert len(chain_bounds(12.5, 40, 2, 3, method)) == 40
    assert len(built) == 1


@pytest.mark.parametrize(
    "value",
    [1 + 2j, np.complex64(1 + 2j), np.complex128(1 + 2j), np.clongdouble(1 + 2j), np.complex128(3.0)],
    ids=["complex", "complex64", "complex128", "clongdouble", "complex128-real"],
)
def test_complex_values_are_refused_not_truncated(value):
    # numpy's complex scalars convert to float with their imaginary part
    # dropped, and only a ComplexWarning
    for build, name in (
        (lambda: Spectrum(values=(value,), n=2, l=2), "eigenvalues"),
        (lambda: Domain((1.0, value)), "edge lengths"),
        (lambda: optimize_delta((value,), (1.0,)), "weights"),
        (lambda: optimize_delta((1.0,), (value,)), "weights"),
        (lambda: delta_objective((value,), (1.0,), (1.0,)), "delta entries"),
        (lambda: delta_objective((1.0,), (1.0,), (value,)), "weights"),
        (lambda: DeltaSequence((value,)), "delta entries"),
        (lambda: chain_bounds(value, 3, 2, 2, "cor11"), "lambda1"),
        (lambda: eval_cor11(Spectrum(values=(0.5,), n=2, l=2), 1, value), "candidate"),
        (lambda: eval_l2_priors(Spectrum(values=(0.5,), n=2, l=2), 1, 2.0, value), "delta"),
        (lambda: s_term(2, 2, value), "lam"),
    ):
        message = f"^{name} must be numeric and within the float range$"
        with pytest.raises(InvalidParameterError, match=message):
            build()


def test_chain_bounds_validation():
    with pytest.raises(InvalidParameterError):
        chain_bounds(1.0, 3, 2, 2, "sphere")
    # an unhashable method leaked TypeError from the solver lookup
    with pytest.raises(InvalidParameterError, match="method must be one of"):
        chain_bounds(1.0, 3, 2, 2, [1])
    with pytest.raises(InvalidParameterError):
        chain_bounds(-1.0, 3, 2, 2, "cor11")
    with pytest.raises(InvalidParameterError):
        chain_bounds(1.0, 0, 2, 2, "cor11")
    # n and l are checked even when count 1 calls no solver
    with pytest.raises(InvalidParameterError, match="n must be >= 2"):
        chain_bounds(1.0, 1, 0, 0, "cor11")
    with pytest.raises(InvalidParameterError, match="n must be an integer"):
        chain_bounds(1.0, 1, "x", 2.5, "sharp")
    with pytest.raises(InvalidParameterError, match="l must be an integer"):
        chain_bounds(1.0, 1, 2, 2.5, "sharp")


# -- spherical form


def test_eval_thm12_hand_instance():
    spectrum = Spectrum(values=(2.0,), n=3, l=2)
    report = eval_thm12(spectrum, 1, 3.0, (1.0,))
    assert report.lhs == 3.0
    assert report.rhs == 3.25
    assert report.residual == -0.25
    assert report.satisfied


def test_eval_thm12_rejects_inadmissible_eigenvalues():
    low = Spectrum(values=(1.0,), n=3, l=2)
    with pytest.raises(DomainViolationError):
        eval_thm12(low, 1, 2.0, (1.0,))
    deep = Spectrum(values=(3.9,), n=4, l=3)
    with pytest.raises(DomainViolationError):
        eval_thm12(deep, 1, 9.0, (1.0,))


def test_eval_thm12_past_the_float_range_is_a_numerical_error():
    # squared gaps of 1e400 once gave a nan residual; sums of 1.4e308 once
    # leaked fsum's OverflowError
    cases = (((1e200, 2e200), 3e200), ((1.0, 1.0), 1.2e154))
    for values, candidate in cases:
        spectrum = Spectrum(values=values, n=2, l=2)
        with pytest.raises(NumericalError, match="float range"):
            eval_thm12(spectrum, 2, candidate, (1.0, 1.0))


def test_eval_thm12_zero_gap_is_trivially_tight():
    spectrum = Spectrum(values=(3.0, 3.0), n=3, l=2)
    report = eval_thm12(spectrum, 2, 3.0, (1.0, 1.0))
    assert report.lhs == 0.0
    assert report.rhs == 0.0
    assert report.satisfied


def test_s_term_reduces_to_identity_at_n2_l2():
    rng = np.random.default_rng(39)
    for lam in rng.uniform(0.2, 500.0, size=50):
        assert s_term(2, 2, float(lam)) == pytest.approx(float(lam), rel=1e-12)


def test_sphere_first_bound_closed_form():
    spectrum = Spectrum(values=(2.0,), n=3, l=2)
    bound = next_bound_sphere(spectrum, 1)
    # single gap: x = lam + 4 * (lam + (n-2)^2/4) / w^2 with w = 3
    assert bound == pytest.approx(3.0, rel=1e-12)


def test_sphere_bound_matches_oracle():
    spectrum = Spectrum(values=(9.0, 16.0), n=3, l=3)
    ours = next_bound_sphere(spectrum, 2)
    reference = oracles.sphere_bound_oracle((9.0, 16.0), 3, 3, 2)
    assert abs(ours - reference) <= 1e-12 * max(1.0, abs(reference))
    assert ours == pytest.approx(98.72673861575, rel=1e-12)


def test_sphere_bound_random_instances_agree_with_oracle():
    rng = np.random.default_rng(40)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        l = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        floor = (n - 2) ** (l - 1)
        start = floor + float(rng.uniform(0.5, 5.0))
        values = start + np.cumsum(rng.uniform(0.0, 5.0, size=k))
        spectrum = Spectrum(values=tuple(float(v) for v in values), n=n, l=l)
        try:
            ours = next_bound_sphere(spectrum, k)
        except InfeasibleSpectrumError:
            continue
        reference = oracles.sphere_bound_oracle(spectrum.values, n, l, k)
        assert abs(ours - reference) <= 1e-11 * max(1.0, abs(reference))
        checked += 1
    assert checked > 30


def test_sphere_bound_matches_oracle_up_to_n8_k6():
    # The oracle scans 64 doublings and enumerates 2**(k-1) partitions.
    rng = np.random.default_rng(46)
    checked = 0
    for _ in range(24):
        n = int(rng.integers(2, 9))
        l = int(rng.integers(2, 6))
        k = int(rng.integers(1, 7))
        start = (n - 2) ** (l - 1) + float(rng.uniform(0.5, 20.0))
        gaps = rng.uniform(0.0, 0.2 * start, size=k - 1)
        lams = tuple(float(v) for v in start + np.cumsum(np.concatenate([[0.0], gaps])))
        try:
            ours = next_bound_sphere(Spectrum(values=lams, n=n, l=l), k)
        except InfeasibleSpectrumError:
            continue
        reference = oracles.sphere_bound_oracle(lams, n, l, k)
        assert ours == pytest.approx(reference, rel=1e-12)
        checked += 1
    assert checked > 12


def test_sphere_bound_holds_on_the_closed_sphere():
    # 1,200 prefixes of an exact spectrum.  The relative 1e-12 allows for
    # _largest_root returning the midpoint of its last bracket, which can sit
    # a few 1e-14 below the largest feasible candidate; once it returns the
    # upper end instead, this becomes an exact >=.
    for n in range(2, 7):
        for l in range(2, 6):
            values = oracles.closed_sphere_eigenvalues(n, l, 61)
            for k in range(1, 61):
                bound = next_bound_sphere(Spectrum(values=values[:k], n=n, l=l), k)
                assert bound >= values[k] * (1.0 - 1e-12), (n, l, k)


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_sphere_bound_is_an_equality_on_the_round_two_sphere(l):
    # on S^2 the first cluster, three values 2**(l-1), bounds the fourth,
    # 6**(l-1), exactly; the midpoint bracket lands up to 3.4e-14 below it
    values = oracles.closed_sphere_eigenvalues(2, l, 4)
    assert values == [2 ** (l - 1)] * 3 + [6 ** (l - 1)]
    bound = next_bound_sphere(Spectrum(values=values[:3], n=2, l=l), 3)
    assert bound == pytest.approx(6 ** (l - 1), rel=1e-12)


def test_sphere_cap_bounds_the_oracle():
    # the solver scans only up to _sphere_cap; the oracle scans 64
    # doublings, so it sees every probe the cap drops
    rng = np.random.default_rng(48)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(2, 9))
        l = int(rng.integers(2, 6))
        k = int(rng.integers(1, 7))
        start = (n - 2) ** (l - 1) + float(rng.uniform(0.5, 20.0))
        gaps = rng.uniform(0.0, 0.3 * start, size=k - 1)
        lams = tuple(float(v) for v in start + np.cumsum(np.concatenate([[0.0], gaps])))
        spectrum = Spectrum(values=lams, n=n, l=l)
        try:
            next_bound_sphere(spectrum, k)
        except InfeasibleSpectrumError:
            continue
        _, s_values, light = _sphere_prefix(lams, n, l)
        cap = _sphere_cap(lams, s_values, light)
        assert cap >= oracles.sphere_bound_oracle(lams, n, l, k) * (1.0 - 1e-12)
        checked += 1
    assert checked > 20


def test_sphere_bound_exceeds_constant_spectrum():
    spectrum = Spectrum(values=(5.0, 5.0, 5.0), n=3, l=2)
    bound = next_bound_sphere(spectrum, 3)
    assert bound > 5.0


def test_sphere_bound_rejects_nonpositive_s_term():
    # s_term goes negative just above the admissibility threshold
    spectrum = Spectrum(values=(2.05, 2.1), n=4, l=2)
    with pytest.raises(InfeasibleSpectrumError):
        next_bound_sphere(spectrum, 2)


# Bounds pinned bit for bit, so that any drift of the solvers fails: the
# capped scans keep every probe below their cap and the same bisection.
FROZEN_PREFIX = tuple(10.0 + 6.0 * i + i * i / 4.0 for i in range(1, 41))
FROZEN_NEXT = {
    # (solver, n, l): the bounds after eigenvalues 1, 10 and 40
    (next_bound_sharp, 2, 2): (70.4166666666687, 210.62801564366828, 943.3342390598773),
    (next_bound_sharp, 3, 3): (107.73148148148303, 307.4436039047748, 1272.320430428561),
    (next_bound_sharp, 4, 4): (130.00000000000472, 376.2403138350479, 1615.2841591004703),
    (next_bound_sphere, 2, 2): (280.3125000000051, 2785.231225140202, 73514.94629560917),
    (next_bound_sphere, 3, 3): (149.17718419289963, 628.1269469372493, 5175.8039481148135),
    (next_bound_sphere, 4, 4): (95.35529623002995, 600.5679592571707, 4312.420189904255),
}
FROZEN_SHARP_CHAIN = [
    12.5,
    82.8703703703716,
    204.10472475169718,
    365.04503035416235,
    566.9586322474263,
    802.4497384101019,
    1074.698348580905,
    1377.0740421767205,
    1713.676487903613,
    2078.0577728581575,
    2474.903494175402,
    2897.7719510468332,
]


# Where the walk from the top probe passes many probes before its bracket:
# sphere bounds after the Weyl-like prefix 20 i**(2 (l-1) / n), i = 1..40,
# and step 39 of the sharp chain from 12.5 at n=2, l=3.
FROZEN_WEYL_SPHERE = {
    (2, 2): 168118.9753796063,
    (3, 3): 42930.19664684257,
    (4, 4): 47639.41948306562,
}
FROZEN_LONG_CHAIN_STEP = 1076277.1399452365


def test_solver_outputs_are_frozen():
    for (solver, n, l), expected in FROZEN_NEXT.items():
        spectrum = Spectrum(values=FROZEN_PREFIX, n=n, l=l)
        assert tuple(solver(spectrum, k) for k in (1, 10, 40)) == expected, (solver, n, l)
    assert chain_bounds(12.5, 12, 3, 3, "sharp") == FROZEN_SHARP_CHAIN
    for (n, l), expected in FROZEN_WEYL_SPHERE.items():
        weyl = tuple(20.0 * i ** (2.0 * (l - 1) / n) for i in range(1, 41))
        assert next_bound_sphere(Spectrum(values=weyl, n=n, l=l), 40) == expected, (n, l)
    assert chain_bounds(12.5, 40, 2, 3, "sharp")[39] == FROZEN_LONG_CHAIN_STEP


# The sharp solver decides most shortfall signs from centered power sums
# and falls back to the fsum loop of _sqrt_form_sums where its certificate
# fails; the referee oracle runs the loop everywhere.
PREFIXES = st.lists(
    st.one_of(st.floats(1.0, 64.0), st.sampled_from((1.0, 2.0, 8.0))), min_size=1, max_size=40
)


def _sharp_or_error(solve):
    try:
        return solve()
    except Exception as exc:
        return type(exc).__name__


def _scaled_prefix(values, t):
    return tuple(sorted(math.ldexp(v, t) for v in values))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(2, 8), l=st.integers(2, 6), values=PREFIXES, t=st.integers(-600, 600))
@example(n=2, l=2, values=FROZEN_PREFIX[:1], t=0)
@example(n=3, l=3, values=FROZEN_PREFIX[:10], t=0)
@example(n=4, l=4, values=FROZEN_PREFIX, t=0)
@example(n=2, l=2, values=FROZEN_PREFIX, t=600)
@example(n=5, l=6, values=FROZEN_PREFIX[:20], t=-600)
@example(n=2, l=2, values=(1e-200, 2e-200), t=0)
@example(n=2, l=2, values=(5e-324,), t=0)
@example(n=3, l=3, values=(1e-310, 2e-310), t=0)
@example(n=3, l=2, values=(2.0, 2.0, 2.0), t=0)
def test_sharp_bound_matches_the_loop_referee(n, l, values, t):
    values = _scaled_prefix(values, t)
    spectrum = Spectrum(values=values, n=n, l=l)
    ours = _sharp_or_error(lambda: next_bound_sharp(spectrum, spectrum.k))
    assert ours == _sharp_or_error(lambda: oracles.sharp_bound_by_loop(values, n, l))


def _sharp_shortfall(spectrum):
    # The shortfall next_bound_sharp hands to _largest_root (None when it
    # rejects the prefix first) and its bound (None when it raises).
    captured = []
    walk = bounds._largest_root

    def capture(f, start, limit):
        captured.append(f)
        return walk(f, start, limit)

    bounds._largest_root = capture
    try:
        root = next_bound_sharp(spectrum, spectrum.k)
    except (InfeasibleSpectrumError, BracketError):
        root = None
    finally:
        bounds._largest_root = walk
    return (captured[0] if captured else None), root


def _shortfall_and_path(shortfall, x):
    # shortfall(x), and whether it came without the fsum loop
    calls = []
    sums = bounds._sqrt_form_sums

    def loop(*args):
        calls.append(args)
        return sums(*args)

    bounds._sqrt_form_sums = loop
    try:
        return shortfall(x), not calls
    finally:
        bounds._sqrt_form_sums = sums


def _sign(value):
    return (value > 0.0) - (value < 0.0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(2, 8),
    l=st.integers(2, 6),
    values=PREFIXES,
    t=st.integers(-600, 600),
    spans=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6),
    nears=st.lists(st.tuples(st.floats(9.0, 15.0), st.booleans()), min_size=1, max_size=16),
    ulps=st.lists(st.integers(-16, 16), min_size=1, max_size=16),
)
@example(n=3, l=3, values=FROZEN_PREFIX, t=0, spans=[0.0, 0.5], nears=[(15.0, True)], ulps=[0, 1])
def test_sharp_fast_signs_match_the_loop(n, l, values, t, spans, nears, ulps):
    # Random candidates at or above eigenvalue k, and candidates within
    # 1e-15 to 1e-9 relative of the bound or a few ulps from it, where the
    # certificate is tested hardest: every sign decided without the loop is
    # the loop's sign, and every other value is the loop's value.
    values = _scaled_prefix(values, t)
    shortfall, root = _sharp_shortfall(Spectrum(values=values, n=n, l=l))
    if shortfall is None:
        return
    xs = [values[-1] * 2.0**s for s in spans]
    if root is not None:
        xs += [root * (1.0 + (1.0 if up else -1.0) * 10.0**-e) for e, up in nears]
        xs += [root + j * math.ulp(root) for j in ulps]
    loop = oracles.sharp_shortfall_by_loop(values, n, l)
    for x in (x for x in xs if x >= values[-1]):
        value, fast = _shortfall_and_path(shortfall, x)
        if fast:
            assert _sign(value) == _sign(loop(x)) != 0, (x, value, loop(x))
        else:
            assert value == loop(x), (x, value, loop(x))


def test_sharp_solver_decides_most_signs_without_the_loop(monkeypatch):
    # The frozen sharp solves run the fsum loop for at most a quarter of
    # their shortfall evaluations, counting the one loop call each solve
    # makes for its check at eigenvalue k and its power sums.
    calls = {"loop": 0, "shortfall": 0}
    sums, walk = bounds._sqrt_form_sums, bounds._largest_root

    def loop(*args):
        calls["loop"] += 1
        return sums(*args)

    def counted_walk(f, start, limit):
        def counted(x):
            calls["shortfall"] += 1
            return f(x)

        return walk(counted, start, limit)

    monkeypatch.setattr(bounds, "_sqrt_form_sums", loop)
    monkeypatch.setattr(bounds, "_largest_root", counted_walk)
    for (solver, n, l), expected in FROZEN_NEXT.items():
        if solver is next_bound_sharp:
            spectrum = Spectrum(values=FROZEN_PREFIX, n=n, l=l)
            assert tuple(solver(spectrum, k) for k in (1, 10, 40)) == expected, (n, l)
    assert calls["shortfall"] > 0
    assert calls["loop"] <= calls["shortfall"] / 4, calls


def test_sharp_solver_sums_its_prefix_once_at_eigenvalue_k(monkeypatch):
    # the check at eigenvalue k reads the centered power sums D2, HD2, CD1
    calls = []
    sums = bounds._sqrt_form_sums
    monkeypatch.setattr(bounds, "_sqrt_form_sums", lambda *args: calls.append(args) or sums(*args))
    monkeypatch.setattr(bounds, "_largest_root", lambda f, start, limit: start)
    next_bound_sharp(Spectrum(values=FROZEN_PREFIX, n=3, l=3), 40)
    assert len(calls) == 1


def test_quadratic_constant_is_built_once_and_validated_every_call():
    # built once per (n, l), which the public functions check before reading it
    assert bounds._quadratic_constant(3, 4) is bounds._quadratic_constant(3, 4)
    assert bounds._quadratic_constant(3, 4) == 4.0 * float(euclidean_coefficient(3, 4)) / 9
    # n is checked once per call, by the public function that reads C
    line = Spectrum(values=(1.0,), n=1, l=2)
    with pytest.raises(InvalidParameterError, match="^n must be >= 2, got 1$"):
        eval_cor11(line, 1, 2.0)
    with pytest.raises(InvalidParameterError, match="^n must be >= 2, got 1$"):
        next_bound_cor11(line, 1)


# -- order-2 comparison forms


def test_l2_priors_frozen_values():
    spectrum = Spectrum(values=(1.0, 2.0), n=2, l=2)
    p16, p18, p19 = eval_l2_priors(spectrum, 2, 4.0, 1.0)
    assert (p16.lhs, p16.rhs) == (13.0, 28.0)
    assert p18.lhs == 13.0
    assert p18.rhs == pytest.approx(70.0 / 3.0, rel=1e-15)
    assert (p19.lhs, p19.rhs) == (26.0, 27.25)


def test_l2_prior18_is_tight_at_its_own_bound():
    spectrum = Spectrum(values=(1.0,), n=2, l=2)
    _, p18, _ = eval_l2_priors(spectrum, 1, 13.0 / 3.0)
    assert p18.residual == 0.0
    assert p18.satisfied


def test_l2_priors_ordering():
    # coefficient 4/3 < 2 makes prior18 at least as strong as prior16
    rng = np.random.default_rng(41)
    for _ in range(100):
        spectrum = random_spectrum(rng, l=2)
        candidate = spectrum.values[-1] * float(rng.uniform(1.0, 2.0))
        p16, p18, _ = eval_l2_priors(spectrum, spectrum.k, candidate)
        assert p18.rhs <= p16.rhs
        assert p16.lhs == p18.lhs


def test_l2_priors_zero_gap():
    spectrum = Spectrum(values=(4.0, 4.0), n=3, l=2)
    for report in eval_l2_priors(spectrum, 2, 4.0, 2.0):
        assert report.residual == 0.0


def _prior19_next_bound(spectrum, k, deltas):
    # The smallest, over deltas, of the largest candidate that prior19 marks
    # satisfied: doubling from eigenvalue k to the first refused candidate,
    # then bisection.  A delta whose candidates pass every doubling up to
    # 2**40 times eigenvalue k is skipped as satisfied everywhere.
    best = math.inf
    for d in deltas:
        satisfied = lambda x: eval_l2_priors(spectrum, k, x, d)[2].satisfied
        lo = spectrum.values[k - 1]
        assert satisfied(lo)
        for _ in range(40):
            if not satisfied(2.0 * lo):
                break
            lo *= 2.0
        else:
            continue
        hi = 2.0 * lo
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if satisfied(mid) else (lo, mid)
        best = min(best, lo)
    return best


@pytest.mark.parametrize("n, ks", [(2, (3, 8, 15, 24, 35)), (3, (4, 13, 29))])
def test_sphere_bound_strengthens_prior19_on_the_closed_sphere(n, ks):
    # The paper's spherical bound lies at or below prior19's next bound,
    # minimized over a log grid of delta from 1e-5 to 1e5, on exact l = 2
    # spectra, each prefix ending a cluster of equal eigenvalues.  A coarser
    # grid can only raise prior19's side.  The margin measured over k = 1..35
    # was 1.4-39% at n = 2 and 17-114% at n = 3.
    deltas = [10.0 ** (e / 8) for e in range(-40, 41)]
    values = oracles.closed_sphere_eigenvalues(n, 2, max(ks) + 1)
    for k in ks:
        assert values[k] > values[k - 1]
        spectrum = Spectrum(values=values[:k], n=n, l=2)
        assert next_bound_sphere(spectrum, k) <= _prior19_next_bound(spectrum, k, deltas), k


def test_l2_prior19_adds_n_minus_two_exactly():
    # n - 2 enters the weight as an exact integer; (d lam + n) - 2
    # cancelled d lam to 0 at n = 2
    spectrum = Spectrum(values=(1.0, 2.0), n=2, l=2)
    assert eval_l2_priors(spectrum, 2, 3.0, 1e-17)[2].satisfied
    # at candidate 1e20 and delta 1e-10 both rhs terms count
    d, candidate = 1e-10, 1e20
    exact = sum(
        Fraction(candidate - v) ** 2 * (Fraction(d) * v + Fraction(d) / 4)
        + Fraction(candidate - v) * v / Fraction(d)
        for v in spectrum.values
    )
    assert eval_l2_priors(spectrum, 2, candidate, d)[2].rhs == pytest.approx(exact, rel=1e-14)
    # the weight 5/4 d lam underflows to 0 at n = 2, so the heavy terms
    # vanish and the light ones give (2e-200 * 1e-200 + 1e-200 * 2e-200) / 1e-200
    tiny = Spectrum(values=(1e-200, 2e-200), n=2, l=2)
    assert eval_l2_priors(tiny, 2, 3e-200, 1e-200)[2].rhs == 4e-200


def test_l2_prior19_undefined_rhs_is_a_numerical_error():
    # one delta is cancelled from the weight, so no d**2 overflows at
    # delta = 1e300: the weights of lam = 5 < n - 2 and lam = 600 are finite
    mixed = Spectrum(values=(5.0, 600.0), n=10, l=2)
    assert eval_l2_priors(mixed, 2, 700.0, 1e300)[2].rhs == 8.345137916666667e306
    # a weight past the float range makes an inf rhs, which the rule allows
    report = eval_l2_priors(Spectrum(values=(1e10, 2e10), n=2, l=2), 2, 3e10, 1e300)[2]
    assert (report.rhs, report.satisfied) == (math.inf, True)
    # at delta = 1e308 the weight of lam = 1e-300 is -inf and that of
    # lam = 600 is +inf, so the rhs is undefined
    mixed = Spectrum(values=(1e-300, 600.0), n=10, l=2)
    with pytest.raises(NumericalError, match="^the prior19 rhs at delta = 1e\\+308 is undefined"):
        eval_l2_priors(mixed, 2, 700.0, 1e308)


def test_l2_prior19_weight_does_not_saturate():
    # the weight 5 d - 3 d**2 / (4 (5 d + 8)) is about 4.85 d; with d**2
    # evaluated first it was -inf at d = 1e300
    report = eval_l2_priors(Spectrum(values=(5.0,), n=10, l=2), 1, 700.0, 1e300)[2]
    assert report.rhs == pytest.approx(2.34267125e306, rel=1e-14)
    assert report.residual < 0.0
    # at n = 2 the weight is d lam + d / 4; d**2 made it inf at d = 1e308
    report = eval_l2_priors(Spectrum(values=(1e-300,), n=2, l=2), 1, 3e-300, 1e308)[2]
    assert report.rhs == pytest.approx(1e-292, rel=1e-14)


def test_l2_prior19_matches_the_exact_rhs():
    # Each computed term rounds a few times, so the rhs lies within a few
    # units of roundoff of the sum of its terms' magnitudes; a negative
    # weight (lam < n - 2) can cancel against the light terms, which makes
    # a plain relative bound on the rhs depend on the draw.
    rng = np.random.default_rng(19)
    for _ in range(3000):
        n = int(rng.choice([2, 3, 4, 5, 10]))
        k = int(rng.integers(1, 7))
        scale = 10.0 ** float(rng.uniform(-5.0, 5.0))
        values = sorted(float(v) for v in scale * rng.uniform(0.1, 1.0, size=k))
        candidate = values[-1] * float(rng.uniform(1.0, 2.0))
        delta = 10.0 ** float(rng.uniform(-6.0, 6.0))
        spectrum = Spectrum(values=tuple(values), n=n, l=2)
        rhs = eval_l2_priors(spectrum, k, candidate, delta)[2].rhs
        exact, magnitude = oracles.prior19_rhs_exact(values, n, candidate, delta)
        assert abs(Fraction(rhs) - exact) <= 1e-15 * magnitude


def test_l2_prior19_light_sum_past_the_float_range_in_units_is_inf():
    # (n-2)**2/4 near 2**122 carries 2**shift in units; five such positive
    # finite terms passed the float range, a bare OverflowError from fsum
    report = eval_l2_priors(Spectrum(values=(1e-291,) * 5, n=2**62, l=2), 5, 1e-271)[2]
    assert (report.rhs, report.satisfied) == (math.inf, True)
    # a zero gap adds nothing where its light factor is inf in units, and
    # 0 * inf made the rhs nan
    report = eval_l2_priors(Spectrum(values=(1e-300, 2e-300), n=2**62, l=2), 2, 2e-300)[2]
    assert (report.rhs, report.satisfied) == (math.inf, True)


def test_thm11_order_two_matches_literal_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        spectrum = random_spectrum(rng, l=2)
        k = spectrum.k
        candidate = spectrum.values[-1] * float(rng.uniform(1.0, 2.0))
        delta = tuple(np.cumsum(rng.uniform(0.01, 1.0, size=k)[::-1])[::-1])
        report = eval_thm11(spectrum, k, candidate, delta)
        reference = oracles.l2_rhs_linear_gap(
            spectrum.n, spectrum.values, k, candidate, delta
        )
        assert report.rhs == pytest.approx(reference, rel=1e-12)


def test_evaluators_match_literal_formulas_bit_for_bit():
    # == rather than approx: evaluation order is part of the contract
    rng = np.random.default_rng(44)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        l = int(rng.integers(2, 6))
        k = int(rng.integers(1, 7))
        start = (n - 2) ** (l - 1) + float(rng.uniform(0.5, 20.0))
        values = start + np.cumsum(rng.uniform(0.0, 10.0, size=k))
        spectrum = Spectrum(values=tuple(float(v) for v in values), n=n, l=l)
        lams = spectrum.values
        candidate = lams[-1] * float(rng.uniform(1.0, 2.0))
        delta = tuple(float(d) for d in np.cumsum(rng.uniform(0.01, 1.0, size=k)[::-1])[::-1])
        thm11 = eval_thm11(spectrum, k, candidate, delta)
        assert (thm11.lhs, thm11.rhs) == oracles.thm11_sides(lams, n, l, k, candidate, delta)
        eq112 = eval_eq112(spectrum, k, candidate)
        assert (eq112.lhs, eq112.rhs) == oracles.eq112_sides(lams, n, l, k, candidate)
        thm12 = eval_thm12(spectrum, k, candidate, delta)
        assert (thm12.lhs, thm12.rhs) == oracles.thm12_sides(lams, n, l, k, candidate, delta)


def test_l2_priors_require_n_at_least_two():
    # at n = 1 the prior19 weight divides by d v + n - 2, which is 0 at v = 1
    spectrum = Spectrum(values=(1.0, 2.0), n=1, l=2)
    with pytest.raises(InvalidParameterError, match="n must be >= 2"):
        eval_l2_priors(spectrum, 2, 3.0)


def test_l2_priors_require_order_two():
    spectrum = Spectrum(values=(1.0,), n=2, l=3)
    with pytest.raises(InvalidParameterError):
        eval_l2_priors(spectrum, 1, 2.0)
    flat = Spectrum(values=(1.0,), n=2, l=2)
    with pytest.raises(InvalidParameterError):
        eval_l2_priors(flat, 1, 2.0, delta_scalar=0.0)
