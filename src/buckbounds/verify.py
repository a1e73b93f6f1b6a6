"""Verification harness: Rayleigh-quotient checks, theorem checks, convergence.

A verification request is checked in full before anything is solved.
Checks are only asserted on computed spectra at the finest resolution that
was solved; a violation smaller than the observed resolution-to-resolution
drift of the same residual is classified inconclusive rather than failed,
because it is indistinguishable from discretization error.

A ladder of resolutions (``run_verification``'s coarse rungs and the sizes
of ``convergence_study``) is assembled once, at its finest basis size: the
bases are nested, so every coarser rung's forms are a leading sub-block of
the finest rung's, equal bit for bit to assembling that rung directly.
Only the finest rung goes through ``solve_buckling``, with its conditioning
warning and its checks of the unscaled forms; each coarser rung goes
straight to the solver, which factors its scaled B once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import (
    BoundReport,
    eval_cor11,
    eval_eq112,
    eval_thm11,
    thm11_optimal_delta,
)
from .eigen import _check_request, _spectrum, solve_buckling
from .errors import InvalidParameterError
from .galerkin import Domain, _leading_forms
from .polyrec import _converted, _require_int

NORMALIZATION_TOL = 1e-8
LEMMA_SLACK = 1e-6
LOWER_SLACK = 1e-10
CONVERGED_RELATIVE = 1e-7
MONOTONE_SLACK = 1e-12


def rayleigh_quantities(vector, forms):
    """Quadratic form values r_k = x^T A_k x for k = 1..l-1.

    The vector must be B-normalized: |x^T B x - 1| <= 1e-8.  r_1 is that
    normalization, so it always sits at 1 up to solver roundoff.
    """
    x = _converted(lambda v: np.asarray(v, dtype=float), vector, "vector").reshape(-1)
    if x.shape[0] != forms.n_basis:
        raise InvalidParameterError(
            f"vector length {x.shape[0]} does not match the basis size {forms.n_basis}"
        )
    norm = float(x @ forms.matrices[0] @ x)
    if not abs(norm - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
        raise InvalidParameterError(f"vector is not B-normalized: x^T B x = {norm}")
    return [norm] + [float(x @ forms.matrices[k - 1] @ x) for k in range(2, forms.l)]


@dataclass(frozen=True)
class LemmaRow:
    """One intermediate-power check: 0 <= r_k <= lam**((k-1)/(l-1))."""

    i: int
    k: int
    value: float
    bound: float
    margin: float
    passed: bool


def check_lemma21(solution):
    """Check every retained eigenpair's intermediate quadratic forms.

    For eigenpair (lam_i, x_i) and k = 1..l-1 the value x_i^T A_k x_i must
    lie in [0, lam_i**((k-1)/(l-1))] up to a 1e-6 relative slack.  Violations
    are recorded in the returned rows, not raised.
    """
    if solution.vectors is None:
        raise InvalidParameterError("the spectrum carries no eigenvectors to check")
    forms = solution.forms
    if forms is None:
        raise InvalidParameterError("no operator forms available for the check")
    l = forms.l
    rows = []
    for i, lam in enumerate(solution.values, start=1):
        quantities = rayleigh_quantities(solution.vectors[:, i - 1], forms)
        for k in range(1, l):
            value = quantities[k - 1]
            bound = lam ** ((k - 1) / (l - 1))
            margin = bound - value
            passed = value >= -LOWER_SLACK and value <= bound * (1.0 + LEMMA_SLACK)
            rows.append(
                LemmaRow(i=i, k=k, value=value, bound=bound, margin=margin, passed=passed)
            )
    return rows


def _require_eigenvalues(k_max, have):
    # The checks up to k_max read eigenvalues 1..k_max+1.
    if have < k_max + 1:
        raise InvalidParameterError(
            f"k_max={k_max} needs at least {k_max + 1} eigenvalues, have {have}"
        )


def check_theorem11(spectrum, k_max):
    """Score the Euclidean inequality chain on a computed spectrum.

    For each k <= k_max the candidate is the computed eigenvalue k+1 and the
    weights are the optimized ones, plus the square-root and quadratic forms
    of the same statement.  Synthetic or file spectra are refused: they prove
    nothing about the theorems.
    """
    _require_int(k_max, "k_max", 0)
    if spectrum.provenance != "computed":
        raise InvalidParameterError(
            f"theorem checks need a computed spectrum, got provenance "
            f"{spectrum.provenance!r}"
        )
    _require_eigenvalues(k_max, spectrum.k)
    reports = []
    for k in range(1, k_max + 1):
        candidate = spectrum.values[k]
        delta = thm11_optimal_delta(spectrum, k, candidate)
        reports.append(eval_thm11(spectrum, k, candidate, delta))
        reports.append(eval_eq112(spectrum, k, candidate))
        reports.append(eval_cor11(spectrum, k, candidate))
    return reports


@dataclass(frozen=True)
class ConvergenceTable:
    """Eigenvalue estimates per basis size with simple acceleration data.

    ``monotone`` flags per eigenvalue index whether estimates never rose as
    the nested basis grew.  ``extrapolated`` holds the geometric-ratio
    extrapolation of the last three estimates; ``converged_at`` the first
    basis size whose relative change from its predecessor fell below 1e-7.
    """

    m_values: tuple
    eigenvalues: tuple
    monotone: tuple
    extrapolated: tuple
    converged_at: tuple


def _extrapolate(history):
    if len(history) < 3:
        return history[-1]
    x0, x1, x2 = history[-3], history[-2], history[-1]
    denom = (x2 - x1) - (x1 - x0)
    if abs(denom) < 1e-300:
        return x2
    accelerated = x2 - (x2 - x1) ** 2 / denom
    return accelerated if math.isfinite(accelerated) else x2


def _table_from_rows(m_values, rows):
    count = len(rows[0])
    monotone = []
    extrapolated = []
    converged_at = []
    for i in range(count):
        column = [row[i] for row in rows]
        monotone.append(
            all(later <= earlier * (1.0 + MONOTONE_SLACK) for earlier, later in zip(column, column[1:]))
        )
        extrapolated.append(_extrapolate(column))
        found = None
        for j in range(1, len(column)):
            if abs(column[j] - column[j - 1]) <= CONVERGED_RELATIVE * abs(column[j]):
                found = m_values[j]
                break
        converged_at.append(found)
    return ConvergenceTable(
        m_values=tuple(m_values),
        eigenvalues=tuple(tuple(row) for row in rows),
        monotone=tuple(monotone),
        extrapolated=tuple(extrapolated),
        converged_at=tuple(converged_at),
    )


def convergence_study(domain, l, m_list, count):
    """Solve the same problem over strictly increasing basis sizes.

    Nested bases make the Rayleigh-Ritz estimates nonincreasing in m; the
    table records whether that held along with extrapolation diagnostics.
    """
    m_list = list(m_list)
    if not m_list:
        raise InvalidParameterError("m_list must be nonempty")
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise InvalidParameterError(f"m_list must be strictly increasing, got {m_list}")
    spectra = _solve_ladder(domain, l, m_list, [count] * len(m_list))
    return _table_from_rows(m_list, [spectrum.values for spectrum in spectra])


def _solve_ladder(domain, l, m_values, counts):
    # Spectra of counts[i] eigenvalues at the increasing basis sizes
    # m_values[i], from one assembly: the bases are nested, so every coarser
    # rung's forms are a leading sub-block of the finest rung's.  Every rung
    # is checked before any is solved.
    rungs = list(zip(m_values, counts))
    for mm, count in rungs:
        _check_request(domain, mm, count)
    finest = solve_buckling(domain, l, *rungs[-1])
    return [_spectrum(_leading_forms(finest.forms, mm), c) for mm, c in rungs[:-1]] + [finest]


@dataclass(frozen=True)
class TheoremCheck:
    """A scored inequality plus its verdict: pass, inconclusive, or failed."""

    report: BoundReport
    verdict: str


@dataclass(frozen=True)
class VerificationReport:
    """Everything one verification run asserted, plus the overall outcome."""

    domain: Domain
    l: int
    m: int
    count: int
    checks: tuple
    lemma_rows: tuple
    convergence: ConvergenceTable
    passed: bool

    def to_dict(self):
        return {
            "schema": 1,
            "domain": list(self.domain.edges),
            "n": self.domain.dim,
            "l": self.l,
            "m": self.m,
            "count": self.count,
            "theorem_checks": [
                dict(check.report.to_dict(), verdict=check.verdict) for check in self.checks
            ],
            "lemma_rows": [asdict(row) for row in self.lemma_rows],
            "convergence": {
                "m": list(self.convergence.m_values),
                "eigenvalues": [list(row) for row in self.convergence.eigenvalues],
                "monotone": list(self.convergence.monotone),
                "extrapolated": list(self.convergence.extrapolated),
                "converged_at": list(self.convergence.converged_at),
            },
            "passed": self.passed,
        }


def _ladder(m):
    return sorted({min(m, max(2, m // 4)), min(m, max(2, m // 2)), m})


def run_verification(domain, l, m, k_max):
    """Full verification at basis size m with a coarse ladder underneath it.

    The request is checked before anything is solved, down to the
    k_max + 1 <= m**n eigenvalues that the checks read.  The theorem
    residuals are also scored at the next-coarser resolution; when a
    violation at the finest resolution is smaller than the residual drift
    between resolutions it is classified inconclusive, and so is one with
    no coarse partner because that rung holds fewer than k_max + 1
    eigenvalues.
    """
    if not isinstance(domain, Domain):
        raise InvalidParameterError("domain must be a Domain instance")
    _require_int(k_max, "k_max", 0)
    if domain.dim < 2:
        raise InvalidParameterError(
            "run_verification needs a rectangle or a box: the inequalities take n from "
            "the domain dimension and require n >= 2"
        )
    _require_int(m, "m", 1)
    _require_eigenvalues(k_max, m**domain.dim)
    count = k_max + 1
    m_values = _ladder(m)
    spectra = _solve_ladder(domain, l, m_values, [min(count, mm**domain.dim) for mm in m_values])
    rows = [spectrum.values for spectrum in spectra]
    table = _table_from_rows(m_values, [row[: min(len(r) for r in rows)] for row in rows])
    finest = spectra[-1]
    reports = check_theorem11(finest, k_max)
    coarse_reports = {}
    if len(m_values) >= 2:
        coarse = spectra[-2]
        if coarse.k >= k_max + 1:
            coarse_reports = {
                (r.method, r.k): r for r in check_theorem11(coarse, k_max)
            }
    checks = []
    for report in reports:
        if report.satisfied:
            verdict = "pass"
        else:
            partner = coarse_reports.get((report.method, report.k))
            if partner is None:
                verdict = "inconclusive"
            else:
                drift = abs(report.residual - partner.residual)
                verdict = "inconclusive" if report.residual <= drift else "failed"
        checks.append(TheoremCheck(report=report, verdict=verdict))
    lemma_rows = check_lemma21(finest)
    passed = (
        all(check.report.satisfied for check in checks)
        and all(row.passed for row in lemma_rows)
        and all(table.monotone)
    )
    return VerificationReport(
        domain=domain,
        l=l,
        m=m,
        count=count,
        checks=tuple(checks),
        lemma_rows=tuple(lemma_rows),
        convergence=table,
        passed=passed,
    )
