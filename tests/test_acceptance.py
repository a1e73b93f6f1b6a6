"""Acceptance suite: ten criteria, one test and one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; each test name is the
criterion it certifies and the -v status column is the pass/fail line.
Tolerances and runtime caps are asserted inside the tests themselves.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from buckbounds import (
    Domain,
    DomainViolationError,
    InfeasibleSpectrumError,
    Polynomial,
    Spectrum,
    check_lemma21,
    check_theorem11,
    delta_objective,
    euclidean_coefficient,
    eval_thm11,
    eval_thm12,
    next_bound_cor11,
    next_bound_sharp,
    next_bound_sphere,
    optimize_delta,
    phi_polynomial,
    fg_polynomials,
    s_term,
    solve_buckling,
    thm11_optimal_delta,
)
from buckbounds.errors import BracketError

import oracles


def test_criterion_01_polynomial_structure():
    started = time.perf_counter()
    for n in range(2, 11):
        t = Polynomial((0, 1))
        for q in range(1, 13):
            phi = phi_polynomial(q, n)
            assert phi.coefficients[-1] == 1
            assert phi.coefficients[0] == -((n - 2) ** (q - 1))
            f_prev, g_prev = fg_polynomials(q - 1, n)
            assert (t * f_prev - g_prev).coefficients == phi.coefficients
    assert time.perf_counter() - started < 1.0


def test_criterion_02_order_two_reduction():
    for n in range(2, 11):
        assert euclidean_coefficient(n, 2) == n + Fraction(4, 3)
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 7))
        values = np.cumsum(rng.uniform(0.5, 5.0, size=k))
        spectrum = Spectrum(values=tuple(float(v) for v in values), n=n, l=2)
        candidate = spectrum.values[-1] * float(rng.uniform(1.0, 2.5))
        delta = tuple(np.cumsum(rng.uniform(0.05, 1.0, size=k)[::-1])[::-1])
        report = eval_thm11(spectrum, k, candidate, delta)
        reference = oracles.l2_rhs_linear_gap(n, spectrum.values, k, candidate, delta)
        assert report.rhs == pytest.approx(reference, rel=1e-12)


def test_criterion_03_interval_closed_form():
    started = time.perf_counter()
    tiny = solve_buckling(Domain.interval(1.0), 2, 1, 1)
    assert tiny.values == (42.0,)
    refined = solve_buckling(Domain.interval(1.0), 2, 10, 1)
    assert refined.values[0] == pytest.approx(4.0 * math.pi**2, rel=1e-8)
    assert time.perf_counter() - started < 1.0


def test_criterion_04_square_finite_difference_agreement():
    started = time.perf_counter()
    reference = oracles.fd_square_lambda1()
    computed = solve_buckling(Domain.rectangle(1.0, 1.0), 2, 12, 1).values[0]
    assert abs(computed - reference) / reference < 0.005
    assert time.perf_counter() - started < 30.0


def test_criterion_05_theorems_hold_on_computed_spectra():
    started = time.perf_counter()
    for l in (2, 3):
        spectrum = solve_buckling(Domain.rectangle(1.0, 1.0), l, 12, 6)
        reports = check_theorem11(spectrum, 5)
        assert len(reports) == 15
        for report in reports:
            # satisfied encodes residual <= 1e-9 * max(|lhs|, |rhs|)
            assert report.satisfied, (l, report.method, report.k, report.residual)
    assert time.perf_counter() - started < 60.0


def test_criterion_06_intermediate_power_bounds():
    for domain in (Domain.interval(1.0), Domain.rectangle(1.0, 1.0)):
        spectrum = solve_buckling(domain, 3, 12, 3)
        rows = check_lemma21(spectrum)
        assert len(rows) == 6
        for row in rows:
            assert row.passed
            if row.k == 1:
                assert row.value == pytest.approx(1.0, abs=1e-10)
            else:
                lam = spectrum.values[row.i - 1]
                assert -1e-10 <= row.value <= lam ** 0.5 * (1.0 + 1e-6)


def test_criterion_07_delta_optimizer_against_grid_search():
    rng = np.random.default_rng(107)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        a = tuple(float(v) for v in rng.uniform(0.1, 10.0, size=k))
        b = tuple(float(v) for v in rng.uniform(0.1, 10.0, size=k))
        delta = optimize_delta(a, b)
        values = tuple(delta)
        assert all(v > 0.0 for v in values)
        assert all(x >= y for x, y in zip(values, values[1:]))
        ours = delta_objective(delta, a, b)
        _, reference = oracles.grid_search_delta(a, b)
        assert ours == pytest.approx(reference, rel=1e-9)
        constant_best = 2.0 * math.sqrt(math.fsum(a) * math.fsum(b))
        assert ours <= constant_best * (1.0 + 1e-12)


def test_criterion_08_bound_ordering_and_covariance():
    rng = np.random.default_rng(108)
    checked = 0
    attempts = 0
    while checked < 500 and attempts < 3000:
        attempts += 1
        n = int(rng.integers(2, 6))
        l = int(rng.integers(2, 6))
        k = int(rng.integers(1, 7))
        start = float(rng.uniform(1.0, 10.0))
        values = start + np.cumsum(rng.uniform(0.0, 0.6 * start, size=k))
        spectrum = Spectrum(values=tuple(float(v) for v in values), n=n, l=l)
        try:
            quad = next_bound_cor11(spectrum, k)
            sharp = next_bound_sharp(spectrum, k)
        except (InfeasibleSpectrumError, BracketError):
            continue
        assert sharp <= quad + 1e-9 * max(1.0, quad)
        checked += 1
    assert checked == 500
    for _ in range(50):
        n = int(rng.integers(2, 6))
        l = int(rng.integers(2, 6))
        lam = float(rng.uniform(0.2, 40.0))
        expected = lam * (1.0 + 4.0 * float(euclidean_coefficient(n, l)) / (n * n))
        single = Spectrum(values=(lam,), n=n, l=l)
        assert next_bound_cor11(single, 1) == pytest.approx(expected, rel=1e-12)
        assert next_bound_sharp(single, 1) == pytest.approx(expected, rel=1e-12)
    for _ in range(50):
        spectrum = Spectrum(
            values=tuple(float(v) for v in 2.0 + np.cumsum(rng.uniform(0.0, 1.0, size=3))),
            n=int(rng.integers(2, 6)),
            l=int(rng.integers(2, 6)),
        )
        factor = float(rng.uniform(0.05, 80.0))
        scaled = Spectrum(
            values=tuple(factor * v for v in spectrum.values), n=spectrum.n, l=spectrum.l
        )
        base = next_bound_cor11(spectrum, 3)
        assert next_bound_cor11(scaled, 3) == pytest.approx(factor * base, rel=1e-12)


def test_criterion_09_spherical_machinery():
    inadmissible = Spectrum(values=(1.0,), n=3, l=2)
    with pytest.raises(DomainViolationError):
        eval_thm12(inadmissible, 1, 2.0, (1.0,))
    rng = np.random.default_rng(109)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        lam = (n - 2) + float(rng.uniform(0.05, 50.0))
        literal = lam * (1.0 - 1.0 / (lam - (n - 2))) + 1.0
        assert s_term(2, n, lam) == pytest.approx(literal, rel=1e-12)
        assert s_term(2, 2, lam) == pytest.approx(lam, rel=1e-12)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 5))
        l = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        start = (n - 1) ** (l - 1) + float(rng.uniform(0.5, 10.0))
        values = start + np.cumsum(rng.uniform(0.0, 5.0, size=k))
        spectrum = Spectrum(values=tuple(float(v) for v in values), n=n, l=l)
        try:
            ours = next_bound_sphere(spectrum, k)
        except InfeasibleSpectrumError:
            continue
        reference = oracles.sphere_bound_oracle(spectrum.values, n, l, k)
        assert abs(ours - reference) <= 1e-12 * max(1.0, abs(reference))
        checked += 1


def test_criterion_10_cli_determinism(tmp_path):
    spectrum_file = tmp_path / "two.csv"
    spectrum_file.write_text("# n=2 l=2\n1.0\n2.0\n", encoding="ascii")
    invocations = [
        ["phi", "--q", "3", "--n", "4", "--json"],
        ["coeffs", "--l", "4", "--n", "3"],
        ["solve", "--dim", "2", "--l", "2", "--degree", "3", "--count", "2", "--json"],
        ["bound", "next", "--method", "sharp", "--spectrum", str(spectrum_file)],
        ["bound", "chain", "--lambda1", "1.0", "--count", "4", "--n", "2", "--l", "2", "--method", "cor11"],
        ["verify", "--l", "2", "--degree", "3", "--kmax", "1", "--json"],
        ["compare-l2", "--spectrum", str(spectrum_file), "--candidate", "4.0"],
    ]
    for argv in invocations:
        outputs = set()
        for _ in range(10):
            result = subprocess.run(
                [sys.executable, "-m", "buckbounds", *argv], capture_output=True
            )
            assert result.returncode == 0, (argv, result.stderr)
            outputs.add(result.stdout)
        assert len(outputs) == 1, argv
