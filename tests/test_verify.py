import json
import math

import numpy as np
import pytest

from buckbounds import eigen, verify
from buckbounds import (
    BoundReport,
    Domain,
    InvalidParameterError,
    Spectrum,
    check_lemma21,
    check_theorem11,
    convergence_study,
    rayleigh_quantities,
    run_verification,
    solve_buckling,
)

import oracles


def test_rayleigh_quantities_normalization_row():
    spectrum = solve_buckling(Domain.interval(1.0), 3, 8, 3)
    vectors = np.asarray(spectrum.vectors)
    for i, lam in enumerate(spectrum.values):
        r = rayleigh_quantities(vectors[:, i], spectrum.forms)
        assert len(r) == 2
        assert r[0] == pytest.approx(1.0, abs=1e-10)
        assert -1e-10 <= r[1] <= math.sqrt(lam) * (1.0 + 1e-6)


def test_rayleigh_quantities_rejects_bad_vectors():
    spectrum = solve_buckling(Domain.interval(1.0), 2, 4, 1)
    vectors = np.asarray(spectrum.vectors)
    with pytest.raises(InvalidParameterError):
        rayleigh_quantities(2.0 * vectors[:, 0], spectrum.forms)
    with pytest.raises(InvalidParameterError):
        rayleigh_quantities(vectors[:2, 0], spectrum.forms)


def test_rayleigh_quantities_refuses_a_complex_vector():
    # numpy's float conversion would keep the real part, which is B-normalized
    spectrum = solve_buckling(Domain.interval(1.0), 2, 4, 1)
    vector = np.asarray(spectrum.vectors)[:, 0] + 1j
    with pytest.raises(InvalidParameterError, match="^vector must be real$"):
        rayleigh_quantities(vector, spectrum.forms)


def test_lemma_rows_are_trivial_at_order_two():
    spectrum = solve_buckling(Domain.rectangle(1.0, 1.0), 2, 4, 2)
    rows = check_lemma21(spectrum)
    assert [(row.i, row.k) for row in rows] == [(1, 1), (2, 1)]
    for row in rows:
        # k=1 is the normalization itself, bound lam**0 = 1
        assert row.bound == 1.0
        assert row.value == pytest.approx(1.0, abs=1e-10)
        assert row.passed


def test_lemma_rows_higher_order_interval():
    spectrum = solve_buckling(Domain.interval(1.0), 3, 12, 3)
    rows = check_lemma21(spectrum)
    assert len(rows) == 6
    assert all(row.passed for row in rows)
    for row in rows:
        if row.k == 2:
            lam = spectrum.values[row.i - 1]
            assert row.value <= math.sqrt(lam) * (1.0 + 1e-6)
            assert row.value >= 0.0
            assert row.margin == row.bound - row.value


def test_lemma_rows_higher_order_square():
    spectrum = solve_buckling(Domain.rectangle(1.0, 1.0), 3, 6, 2)
    rows = check_lemma21(spectrum)
    assert all(row.passed for row in rows)


def test_lemma_check_needs_vectors():
    synthetic = Spectrum(values=(1.0, 2.0), n=2, l=2)
    with pytest.raises(InvalidParameterError):
        check_lemma21(synthetic)


def test_lemma_check_needs_forms():
    vectors_only = Spectrum(values=(1.0,), n=1, l=2, vectors=np.ones((1, 1)))
    with pytest.raises(InvalidParameterError, match="no operator forms"):
        check_lemma21(vectors_only)


def test_theorem_checks_on_computed_square_spectrum():
    spectrum = solve_buckling(Domain.rectangle(1.0, 1.0), 2, 6, 4)
    reports = check_theorem11(spectrum, 3)
    assert [r.method for r in reports] == ["thm11", "eq112", "cor11"] * 3
    assert [r.k for r in reports] == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    assert all(r.satisfied for r in reports)


def test_theorem_checks_refuse_unproven_spectra():
    synthetic = Spectrum(values=(1.0, 2.0, 3.0), n=2, l=2)
    with pytest.raises(InvalidParameterError):
        check_theorem11(synthetic, 1)
    parsed = Spectrum(values=(1.0, 2.0), n=2, l=2, provenance="file")
    with pytest.raises(InvalidParameterError):
        check_theorem11(parsed, 1)


def test_theorem_checks_bounds_on_k():
    spectrum = solve_buckling(Domain.rectangle(1.0, 1.0), 2, 4, 2)
    assert check_theorem11(spectrum, 0) == []
    with pytest.raises(InvalidParameterError):
        check_theorem11(spectrum, 2)


def test_convergence_study_interval():
    table = convergence_study(Domain.interval(1.0), 2, (1, 2, 4, 8, 12), 1)
    column = [row[0] for row in table.eigenvalues]
    assert column[0] == 42.0
    assert table.monotone == (True,)
    assert column[-1] == pytest.approx(4.0 * math.pi**2, rel=1e-12)
    assert table.extrapolated[0] == pytest.approx(4.0 * math.pi**2, rel=1e-12)
    assert table.m_values == (1, 2, 4, 8, 12)


def test_convergence_study_interval_second_eigenvalue():
    table = convergence_study(Domain.interval(1.0), 2, (4, 8, 12), 2)
    truth = oracles.interval_order2_eigenvalue(2)
    assert table.eigenvalues[-1][1] == pytest.approx(truth, rel=1e-9)
    assert table.monotone == (True, True)


def test_convergence_study_square():
    table = convergence_study(Domain.rectangle(1.0, 1.0), 2, (2, 4, 6), 3)
    assert table.monotone == (True, True, True)
    last = table.eigenvalues[-1]
    assert last[1] == pytest.approx(last[2], rel=1e-9)


def test_convergence_study_single_size():
    table = convergence_study(Domain.interval(1.0), 2, (3,), 2)
    assert table.monotone == (True, True)
    assert table.extrapolated == table.eigenvalues[0]
    assert table.converged_at == (None, None)


def test_extrapolation_keeps_the_last_estimate_without_curvature():
    # equal steps leave the geometric ratio undefined (a zero second
    # difference), so the last estimate stands
    assert verify._extrapolate([3.0, 2.0, 1.0]) == 1.0


def test_convergence_study_validation():
    with pytest.raises(InvalidParameterError):
        convergence_study(Domain.interval(1.0), 2, (4, 4), 1)
    with pytest.raises(InvalidParameterError):
        convergence_study(Domain.interval(1.0), 2, (), 1)
    # every rung is checked before the finest one is solved
    with pytest.raises(InvalidParameterError, match="m must be an integer, got 2.5"):
        convergence_study(Domain.interval(1.0), 2, (2, 2.5, 4), 1)
    with pytest.raises(InvalidParameterError, match="count=2 exceeds the basis size 1"):
        convergence_study(Domain.rectangle(1.0, 1.0), 2, (1, 2), 2)
    # a size that is not an integer is refused before the sizes are compared,
    # which leaked TypeError
    with pytest.raises(InvalidParameterError, match="m must be an integer, got None"):
        convergence_study(Domain((1.0, 1.0)), 2, [2, None], 1)


def test_a_ladder_assembles_once(monkeypatch):
    # every coarser rung's forms are a leading block of the finest rung's
    calls = []
    assemble = eigen.assemble_forms
    monkeypatch.setattr(eigen, "assemble_forms", lambda *a: calls.append(a) or assemble(*a))
    square, interval = Domain.rectangle(1.0, 1.0), Domain.interval(1.0)
    run_verification(square, 2, 8, 1)
    convergence_study(interval, 3, (2, 4, 8), 2)
    assert calls == [(square, 2, 8), (interval, 3, 8)]


def test_lemma_rows_do_not_depend_on_when_the_forms_are_built():
    # A_2 and A_3 are built by the check's first read, or before the check
    domain = Domain.rectangle(1.3, 0.7)
    early = solve_buckling(domain, 4, 6, 3)
    early.forms.matrices
    assert check_lemma21(solve_buckling(domain, 4, 6, 3)) == check_lemma21(early)


def test_run_verification_square_passes():
    report = run_verification(Domain.rectangle(1.0, 1.0), 2, 6, 1)
    assert report.passed
    assert [c.verdict for c in report.checks] == ["pass"] * 3
    assert report.convergence.m_values == (2, 3, 6)
    assert report.count == 2
    assert all(row.passed for row in report.lemma_rows)


def test_run_verification_higher_order():
    report = run_verification(Domain.rectangle(1.0, 2.0), 3, 6, 2)
    assert report.passed
    assert {c.verdict for c in report.checks} == {"pass"}
    assert len(report.checks) == 6


@pytest.mark.parametrize(
    "edges, l, m, k_max", [((1.0, 1.0, 1.0), 2, 6, 3), ((1.3, 0.7, 1.1), 3, 5, 2)]
)
def test_run_verification_on_a_box_scores_n_three(edges, l, m, k_max):
    # the inequalities take n = 3 from the box: eq112's lhs is n times the
    # squared gaps, checked against the literal oracle with n = 3
    report = run_verification(Domain(edges), l, m, k_max)
    assert report.passed and report.to_dict()["n"] == 3
    assert [c.report.method for c in report.checks] == ["thm11", "eq112", "cor11"] * k_max
    assert {c.verdict for c in report.checks} == {"pass"}
    values = report.convergence.eigenvalues[-1]
    for check in report.checks:
        if check.report.method == "eq112":
            k = check.report.k
            expected = oracles.eq112_sides(values, 3, l, k, values[k])
            assert (check.report.lhs, check.report.rhs) == pytest.approx(expected, rel=1e-12)


def test_run_verification_report_serializes():
    report = run_verification(Domain.rectangle(1.0, 1.0), 2, 4, 1)
    data = report.to_dict()
    assert data["schema"] == 1
    assert set(data) == {
        "schema",
        "domain",
        "n",
        "l",
        "m",
        "count",
        "theorem_checks",
        "lemma_rows",
        "convergence",
        "passed",
    }
    assert data["n"] == 2
    for check in data["theorem_checks"]:
        assert check["verdict"] in ("pass", "inconclusive", "failed")
    text = json.dumps(data, sort_keys=True)
    assert json.loads(text) == data


def test_run_verification_rejects_intervals():
    with pytest.raises(InvalidParameterError):
        run_verification(Domain.interval(1.0), 2, 6, 1)


def test_run_verification_checks_the_request_before_solving(monkeypatch):
    def refuse(*args):
        raise AssertionError("solved before the request was checked")

    monkeypatch.setattr(verify, "solve_buckling", refuse)
    square = Domain.rectangle(1.0, 1.0)
    with pytest.raises(InvalidParameterError, match="^domain must be a Domain instance$"):
        run_verification("x", 2, 4, 1)
    with pytest.raises(InvalidParameterError, match="^m must be an integer, got 2.5$"):
        run_verification(square, 2, 2.5, 1)
    message = "^k_max=9 needs at least 10 eigenvalues, have 4$"
    with pytest.raises(InvalidParameterError, match=message):
        run_verification(square, 2, 2, 9)
    with pytest.raises(InvalidParameterError, match="have 8$"):
        run_verification(Domain((1.0, 1.0, 1.0)), 2, 2, 8)


def test_every_rung_is_checked_by_the_one_request_check(monkeypatch):
    # run_verification and each ladder rung check l, m and the caps through
    # galerkin's request check, before anything is assembled
    def refuse(*args):
        raise AssertionError("assembled forms for an invalid request")

    monkeypatch.setattr(eigen, "assemble_forms", refuse)
    box = Domain((1.0, 1.0, 1.0))
    cap = r"^basis size m\*\*dim = 729 exceeds the supported cap 576$"
    with pytest.raises(InvalidParameterError, match=cap):
        run_verification(box, 2, 9, 1)
    with pytest.raises(InvalidParameterError, match=cap):
        convergence_study(box, 2, (2, 9), 1)
    with pytest.raises(InvalidParameterError, match="^l must be >= 2, got 1$"):
        run_verification(box, 1, 4, 1)
    with pytest.raises(InvalidParameterError, match="^l must be an integer, got 2.5$"):
        convergence_study(box, 2.5, (2, 4), 1)


def test_run_verification_without_coarse_partners_is_inconclusive():
    # the coarse rung m = 2 holds 4 of the 25 eigenvalues, so no check has a
    # partner to measure the drift against
    report = run_verification(Domain((2.5, 0.4)), 2, 5, 24)
    assert report.convergence.m_values == (2, 5)
    assert not report.passed
    unsatisfied = [c for c in report.checks if not c.report.satisfied]
    assert unsatisfied
    assert {c.verdict for c in unsatisfied} == {"inconclusive"}
    assert {c.verdict for c in report.checks if c.report.satisfied} == {"pass"}


@pytest.mark.parametrize(
    "fine, coarse, verdict",
    # a violation exactly as large as its drift is inconclusive
    [(0.5, 0.1, "failed"), (0.5, -0.5, "inconclusive"), (0.5, 0.0, "inconclusive")],
)
def test_run_verification_weighs_a_violation_against_the_drift(monkeypatch, fine, coarse, verdict):
    # a violation larger than its drift from the coarse rung fails
    def scored(spectrum, k_max):
        residual = fine if spectrum.m == 8 else coarse
        return [BoundReport("cor11", 1, 1.0, 1.0 - residual, residual, 1e-9, residual <= 1e-9)]

    monkeypatch.setattr(verify, "check_theorem11", scored)
    report = run_verification(Domain.rectangle(1.0, 1.0), 2, 8, 1)
    assert report.convergence.m_values == (2, 4, 8)
    assert [c.verdict for c in report.checks] == [verdict]
    assert not report.passed


def test_run_verification_one_rung_violation_is_inconclusive(monkeypatch):
    # m = 2 is a ladder of one rung, so a violation has no coarse partner
    def scored(spectrum, k_max):
        return [BoundReport("cor11", 1, 1.0, 0.5, 0.5, 1e-9, False)]

    monkeypatch.setattr(verify, "check_theorem11", scored)
    report = run_verification(Domain.rectangle(1.0, 1.0), 2, 2, 1)
    assert report.convergence.m_values == (2,)
    assert [c.verdict for c in report.checks] == ["inconclusive"]
    assert not report.passed


def test_run_verification_ladder_never_exceeds_m():
    report = run_verification(Domain.rectangle(1.0, 1.0), 2, 1, 0)
    assert report.convergence.m_values == (1,)
    assert report.m == 1 and report.passed


def test_run_verification_zero_kmax_still_checks_lemma():
    report = run_verification(Domain.rectangle(1.0, 1.0), 2, 4, 0)
    assert report.checks == ()
    assert report.passed
    assert len(report.lemma_rows) == 1
