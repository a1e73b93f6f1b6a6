"""Verification harness: Rayleigh-quotient checks, theorem checks, convergence.

A verification request is checked in full before anything is solved.

One ladder study serves ``run_verification`` (its coarse rungs under m) and
``convergence_study`` (its sizes): it solves a ladder of resolutions and
tabulates their convergence.  The ladder's pencil is assembled once, at its
finest basis size: the bases are nested, so every coarser rung's pencil
(A_l, A_1) is a leading sub-block of the finest rung's, equal bit for bit to
assembling that rung directly; any other form a coarser rung is asked for
is assembled at that rung's own size.  Only the finest rung goes through
``solve_buckling``, with its conditioning warning and its checks of the
unscaled forms; each coarser rung goes straight to the solver, which
factors its scaled B once.

Checks are only asserted on computed spectra at the finest resolution that
was solved, and one verdict rule judges every theorem check there.  A
satisfied check passes.  A violation is inconclusive when it is no larger
than its drift from the same check at the next-coarser rung, or when it has
no such partner, because it is indistinguishable from discretization error.
Any other violation fails.
"""

from __future__ import annotations

import math

from .bounds import (
    Spectrum,
    eval_cor11,
    eval_eq112,
    eval_thm11,
    thm11_optimal_delta,
)
from .eigen import _check_request, _spectrum, solve_buckling
from .errors import InvalidParameterError, _collected, _Record, _require_int, _require_type
from .galerkin import OperatorForms, _checked_basis, _float_array, _leading_forms

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
    x = _float_array(vector, "vector").reshape(-1)
    _require_type(forms, OperatorForms, "forms")
    if x.shape[0] != forms.n_basis:
        raise InvalidParameterError(
            f"vector length {x.shape[0]} does not match the basis size {forms.n_basis}"
        )
    return _quantities(x, forms.matrices)


def _quantities(x, matrices):
    # rayleigh_quantities of a float vector x whose length is the size of the
    # l matrices: the kernel that rayleigh_quantities and check_lemma21
    # share, which checks only that x is B-normalized
    norm = float(x @ matrices[0] @ x)
    if not abs(norm - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
        raise InvalidParameterError(f"vector is not B-normalized: x^T B x = {norm}")
    return [norm] + [float(x @ matrices[k - 1] @ x) for k in range(2, len(matrices))]


class LemmaRow(_Record):
    """One intermediate-power check: 0 <= r_k <= lam**((k-1)/(l-1))."""

    def __init__(self, i, k, value, bound, margin, passed):
        self._store(locals())


def check_lemma21(solution):
    """Check every retained eigenpair's intermediate quadratic forms.

    For eigenpair (lam_i, x_i) and k = 1..l-1 the value x_i^T A_k x_i must
    lie in [0, lam_i**((k-1)/(l-1))] up to a 1e-6 relative slack.  Violations
    are recorded in the returned rows, not raised.  The vectors and forms
    are checked once, before any row: the vectors must hold a column of the
    basis size for each eigenvalue.
    """
    _require_type(solution, Spectrum, "solution")
    if solution.vectors is None:
        raise InvalidParameterError("the spectrum carries no eigenvectors to check")
    forms = solution.forms
    if forms is None:
        raise InvalidParameterError("no operator forms available for the check")
    _require_type(forms, OperatorForms, "forms")
    vectors = _float_array(solution.vectors, "vector")
    if vectors.ndim != 2 or vectors.shape[0] != forms.n_basis or vectors.shape[1] < solution.k:
        raise InvalidParameterError(
            f"vectors must have shape ({forms.n_basis}, k) with k >= {solution.k}, "
            f"got {vectors.shape}"
        )
    l, matrices = forms.l, forms.matrices
    rows = []
    for i, lam in enumerate(solution.values, start=1):
        quantities = _quantities(vectors[:, i - 1], matrices)
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
    _require_type(spectrum, Spectrum, "spectrum")
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


class ConvergenceTable(_Record):
    """Eigenvalue estimates per basis size with simple acceleration data.

    ``monotone`` flags per eigenvalue index whether estimates never rose as
    the nested basis grew.  ``extrapolated`` holds the geometric-ratio
    extrapolation of the last three estimates; ``converged_at`` the first
    basis size whose relative change from its predecessor fell below 1e-7.
    """

    def __init__(self, m_values, eigenvalues, monotone, extrapolated, converged_at):
        self._store(locals())


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
    monotone, extrapolated, converged_at = [], [], []
    for column in zip(*rows):  # one eigenvalue index's estimates, in m order
        steps = list(zip(m_values[1:], column, column[1:]))  # (m, previous, estimate)
        monotone.append(all(b <= a * (1.0 + MONOTONE_SLACK) for _, a, b in steps))
        extrapolated.append(_extrapolate(column))
        converged = (m for m, a, b in steps if abs(b - a) <= CONVERGED_RELATIVE * abs(b))
        converged_at.append(next(converged, None))
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
    Every size is checked, as ``solve_buckling`` checks its request, before
    any is solved.
    """
    m_list = _collected(list, m_list, "m_list", "basis sizes")
    if not m_list:
        raise InvalidParameterError("m_list must be nonempty")
    for mm in m_list:
        _check_request(domain, l, mm, count)
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise InvalidParameterError(f"m_list must be strictly increasing, got {m_list}")
    return _study(domain, l, m_list, [count] * len(m_list))[1]


def _study(domain, l, m_values, counts):
    # The spectra of counts[i] eigenvalues at the increasing basis sizes
    # m_values[i], from one assembly: the bases are nested, so every coarser
    # rung's pencil is a leading sub-block of the finest rung's.  The rungs
    # are trusted: each caller has checked them.  The table keeps each
    # rung's first counts[0] values, which no rung has fewer of.
    rungs = list(zip(m_values, counts))
    finest = solve_buckling(domain, l, *rungs[-1])
    spectra = [_spectrum(_leading_forms(finest.forms, mm), c) for mm, c in rungs[:-1]] + [finest]
    return spectra, _table_from_rows(m_values, [s.values[: counts[0]] for s in spectra])


class TheoremCheck(_Record):
    """A scored inequality plus its verdict: pass, inconclusive, or failed.

    ``report`` is the ``BoundReport`` of the inequality.
    """

    def __init__(self, report, verdict):
        self._store(locals())


class VerificationReport(_Record):
    """Everything one verification run asserted, plus the overall outcome.

    ``domain`` is the ``Domain`` verified, ``checks`` and ``lemma_rows`` are
    tuples of ``TheoremCheck`` and ``LemmaRow``, and ``convergence`` is the
    ``ConvergenceTable`` of the ladder.
    """

    def __init__(self, domain, l, m, count, checks, lemma_rows, convergence, passed):
        self._store(locals())

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
            "lemma_rows": [row._asdict() for row in self.lemma_rows],
            "convergence": {
                "m": list(self.convergence.m_values),
                "eigenvalues": [list(row) for row in self.convergence.eigenvalues],
                "monotone": list(self.convergence.monotone),
                "extrapolated": list(self.convergence.extrapolated),
                "converged_at": list(self.convergence.converged_at),
            },
            "passed": self.passed,
        }


def _verdict(report, partner):
    # The verdict rule of the module docstring; partner is the same check at
    # the next-coarser rung, or None.
    if report.satisfied:
        return "pass"
    if partner is None or report.residual <= abs(report.residual - partner.residual):
        return "inconclusive"
    return "failed"


def _ladder(m):
    return sorted({min(m, max(2, m // 4)), min(m, max(2, m // 2)), m})


def run_verification(domain, l, m, k_max):
    """Full verification at basis size m with a coarse ladder underneath it.

    The request is checked before anything is solved: its domain, l, m and
    caps by galerkin's request check, then n >= 2 and the k_max + 1 <= m**n
    eigenvalues that the checks read.  The ladder's rungs, at most m and at
    least min(m, 2), with between 1 and k_max + 1 eigenvalues each, pass
    that check too, so they are not checked again.  The theorem residuals
    are also scored at the next-coarser rung, which is no partner when it
    holds fewer than k_max + 1 eigenvalues, and each check at the finest
    rung gets the module's verdict: pass, inconclusive or failed.
    """
    _checked_basis(domain, l, m)
    _require_int(k_max, "k_max", 0)
    if domain.dim < 2:
        raise InvalidParameterError(
            "run_verification needs a rectangle or a box: the inequalities take n from "
            "the domain dimension and require n >= 2"
        )
    _require_eigenvalues(k_max, m**domain.dim)
    count = k_max + 1
    m_values = _ladder(m)
    spectra, table = _study(domain, l, m_values, [min(count, mm**domain.dim) for mm in m_values])
    finest = spectra[-1]
    reports = check_theorem11(finest, k_max)
    # check_theorem11 emits the same (k, method) sequence for every spectrum
    # of at least k_max + 1 values, so partners pair by position.
    partners = [None] * len(reports)
    if len(spectra) >= 2 and spectra[-2].k >= count:
        partners = check_theorem11(spectra[-2], k_max)
    checks = [TheoremCheck(r, _verdict(r, p)) for r, p in zip(reports, partners)]
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
