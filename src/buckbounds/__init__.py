"""Clamped buckling spectra of arbitrary order and universal gap bounds.

The bounds, polynomial families and errors are pure Python and load with the
package.  The numeric modules ``eigen``, ``galerkin`` and ``verify`` need
numpy and scipy, so their names are imported on first use (PEP 562).
"""

import importlib

from .bounds import (
    BoundReport,
    DeltaSequence,
    Spectrum,
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
from .errors import (
    BracketError,
    BuckBoundsError,
    ConvergenceError,
    DomainViolationError,
    InfeasibleSpectrumError,
    InternalConsistencyError,
    InvalidParameterError,
    NotPositiveDefiniteError,
    NumericalError,
    SpectrumFormatError,
)
from .polyrec import (
    ACoefficients,
    Polynomial,
    extract_a_coefficients,
    fg_polynomials,
    h_term,
    phi_polynomial,
    s_term,
)

__version__ = "0.1.0"

# Public name -> the numeric module that defines it.
_LAZY = {
    "EigenSolution": "eigen",
    "cholesky_spd": "eigen",
    "solve_buckling": "eigen",
    "solve_generalized": "eigen",
    "Basis1D": "galerkin",
    "Domain": "galerkin",
    "OperatorForms": "galerkin",
    "assemble_forms": "galerkin",
    "build_basis_1d": "galerkin",
    "derivative_integral_table": "galerkin",
    "export_forms": "galerkin",
    "load_forms": "galerkin",
    "ConvergenceTable": "verify",
    "LemmaRow": "verify",
    "TheoremCheck": "verify",
    "VerificationReport": "verify",
    "check_lemma21": "verify",
    "check_theorem11": "verify",
    "convergence_study": "verify",
    "rayleigh_quantities": "verify",
    "run_verification": "verify",
}

# What ``from buckbounds import *`` binds: every eager name above, then every
# lazy one, which the star import resolves through ``__getattr__``.
__all__ = [
    "BoundReport", "DeltaSequence", "Spectrum", "chain_bounds", "delta_objective",
    "euclidean_coefficient", "eval_cor11", "eval_eq112", "eval_l2_priors", "eval_thm11",
    "eval_thm12", "format_spectrum_csv", "next_bound_cor11", "next_bound_sharp",
    "next_bound_sphere", "optimize_delta", "parse_spectrum", "read_spectrum",
    "thm11_optimal_delta",
    "BracketError", "BuckBoundsError", "ConvergenceError", "DomainViolationError",
    "InfeasibleSpectrumError", "InternalConsistencyError", "InvalidParameterError",
    "NotPositiveDefiniteError", "NumericalError", "SpectrumFormatError",
    "ACoefficients", "Polynomial", "extract_a_coefficients", "fg_polynomials", "h_term",
    "phi_polynomial", "s_term",
    *_LAZY,
]


def __getattr__(name):
    if name in ("eigen", "galerkin", "verify"):
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
