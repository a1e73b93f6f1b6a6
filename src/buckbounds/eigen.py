"""Dense symmetric-definite generalized eigensolver and buckling spectra.

The pencil (A, B) with B positive definite is reduced through B = L L^T to a
standard symmetric problem on L^-1 A L^-T, which LAPACK solves by
tridiagonalization plus implicitly shifted iteration.  A Jacobi scaling of
both matrices keeps the reduction well conditioned; it is a congruence, so
eigenvalues are untouched.  Results are deterministic: the same matrices give
bitwise identical output.

Each input is checked once, by the public entry point that receives it:
square, nonempty, finite, and symmetric to a tolerance.  ``cholesky_spd``
checks its matrix and ``solve_generalized`` its pencil and count.  The
internal solve, ``_solve_by_class``, trusts one precondition instead: its
operands are finite symmetric float arrays of one shape, and 1 <= count
<= N.  Its callers meet it by construction.  ``assemble_forms`` rounds the
two halves of each form from the same rational and raises on overflow;
``solve_buckling`` has just checked both forms through its two unscaled
``cholesky_spd`` calls; a ladder's coarser rungs are principal sub-blocks
of those forms; and every rung's request has been checked, by
``_check_request`` or, on ``run_verification``'s ladder, by the check of
the m that its rungs are derived from.
It leaves the domain, l, m and the caps to galerkin's one request check,
``_checked_basis``, and checks only its own rule, 1 <= count <= m**dim, so
a new domain kind changes one check, not one per module.  The solver
still checks that B's diagonal is positive, and every postcondition.  A
Jacobi scaling that overflows raises ``NumericalError``, and so does a
reduced matrix L^-1 A L^-T that overflows, so every operand that reaches
LAPACK is finite and scipy is told not to check it again.

There is one solve, over index classes that the pencil does not couple; the
whole pencil is the single class of all N rows, gathered and merged like
any other.  Each class's principal sub-pencil is scaled, factored, reduced
and handed to the eigensolver on its own.  The count smallest values over all
classes are kept, and only their vectors are back-transformed, each exactly
0.0 outside its class.  The postconditions then check the merged pairs
once, against the whole pencil: the vectors must be B-orthonormal to
``ORTHONORMALITY_TOL``, and each pair's normwise backward error
eta = |A x - lambda B x| / ((|A|_F + |lambda| |B|_F) |x|) (D. J. Higham and
N. J. Higham, SIAM J. Matrix Anal. Appl. 20 (1998) 493-512) must not exceed
``RESIDUAL_TOL``.  Like the symmetry check, both are unitless: scaling A
and B by powers of two scales the values and vectors exactly and keeps
every verdict.  A solve keeps at most three N x N work
arrays alive besides its inputs: A's gathered copy is scaled in place, the
scaled B is written into the scaling's own buffer, each intermediate before
the eigensolver is dropped as soon as its consumer returns, and the
symmetric eigensolver overwrites its operand with the vectors instead of
copying it.

A buckling pencil never couples two of the 2^dim x -> 1-x parity classes
of its basis: every entry between two classes is exactly 0.0.  Once every
class has ``SPLIT_MIN_ROWS`` rows, ``_spectrum`` solves over those classes,
since the cost of a solve grows as N^3.  Smaller pencils, every interval
among them, are solved as the single class, because there the fixed cost of
each class's solve outweighs the saving.

This module alone decides whether a pencil can be solved and how far its
digits can be trusted; ``galerkin`` only builds exact forms.  Right after
``solve_buckling`` assembles, it warns when m is above ``CONDITIONING_NOTE``
and factors the unscaled A_1 and A_l with ``cholesky_spd``; the solver then
factors its own Jacobi-scaled B once per class, so a solve makes three
``cholesky_spd`` calls, or 2 + 2^dim when it is split.  The two
unscaled checks duplicate that factorization, and the unscaled A_1 check
can fail where the scaled solve succeeds.  They stay because the benchmark
harness pins three ``cholesky_spd`` calls per whole solve, and because
they are the checks of the two forms that the solver trusts; once that pin
is lifted, the scaled factors alone can serve, with the forms checked
where they are built.  A ladder's coarser rungs
reach the solver through ``_spectrum`` and skip the unscaled checks.

scipy supplies only the two LAPACK drivers ``eigh`` and ``solve_triangular``.
They are module attributes resolved on first use, so importing this module
loads numpy alone, scipy loads at the first solve, and the solver calls
whatever the two attributes hold at call time.
"""

import importlib
import math
import sys
import warnings

import numpy as np
from numpy.linalg import LinAlgError

from .bounds import Spectrum
from .errors import (
    ConvergenceError,
    InternalConsistencyError,
    InvalidParameterError,
    NotPositiveDefiniteError,
    NumericalError,
    _require_int,
)
from .galerkin import _checked_basis, _float_array, _parity_classes, assemble_forms

PIVOT_RELATIVE = 1e-14
ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-10
SYMMETRY_TOL = 1e-12
CONDITIONING_NOTE = 16
# A pencil is solved one parity class at a time when every class has at
# least this many rows: 2D from m = 10, 3D from m = 6, never an interval.
# Split against whole with one BLAS thread, the split took 1.2-1.3x the
# time at 8-9 rows a class (2D m = 7, 3D m = 4), 0.7-0.94x at 16 (2D m = 8
# and 9), 0.54x at 25 (2D m = 10) and 0.34x at 27 (3D m = 6).  The rule
# starts where the split wins clearly, and it keeps the bits of every
# smaller pencil, the CLI's golden outputs among them.
SPLIT_MIN_ROWS = 25

# The two scipy.linalg drivers, imported on first lookup (PEP 562): scipy
# takes longer to import than numpy, and a process that imports this module
# but never solves skips it, such as a `solve` that stops at an input error
# or at the pivot check, or a star import used only for bounds.
_SCIPY_NAMES = ("eigh", "solve_triangular")


def __getattr__(name):
    if name not in _SCIPY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("scipy.linalg"), name)
    globals()[name] = value
    return value


def _as_symmetric(matrix, name):
    # The one check of an input: square, nonempty and finite, then symmetric
    # to SYMMETRY_TOL times its largest |entry|, a verdict that has no units.
    # max and min reach every NaN and inf without a temporary array; the
    # difference is the only one.
    mat = _float_array(matrix, name)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidParameterError(f"{name} must be a square matrix, got shape {mat.shape}")
    if not mat.size:
        raise InvalidParameterError(f"{name} must not be empty")
    top, bottom = float(mat.max()), float(mat.min())
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise InvalidParameterError(f"{name} has an entry that is NaN or infinite")
    with np.errstate(over="ignore"):
        diff = mat - mat.T
    np.abs(diff, out=diff)
    if float(diff.max()) > SYMMETRY_TOL * max(top, -bottom):
        raise InvalidParameterError(f"{name} is not symmetric")
    return mat


def _finite(mat):
    return math.isfinite(mat.max()) and math.isfinite(mat.min())


def cholesky_spd(matrix):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Fails with the offending pivot index as soon as a pivot drops to
    1e-14 times the largest diagonal entry, instead of propagating NaNs.
    """
    mat = _as_symmetric(matrix, "matrix")
    n = mat.shape[0]
    threshold = PIVOT_RELATIVE * float(np.diagonal(mat).max())
    lower = np.zeros_like(mat)
    for j in range(n):
        pivot = mat[j, j] - float(lower[j, :j] @ lower[j, :j])
        if not pivot > threshold:
            raise NotPositiveDefiniteError(
                f"pivot {pivot} at index {j} is not above {threshold}",
                index=j,
                pivot=pivot,
            )
        lower[j, j] = math.sqrt(pivot)
        # On the last column every slice below is empty.
        lower[j + 1 :, j] = (mat[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


class EigenSolution:
    """Ascending eigenvalues with B-orthonormal eigenvectors, one per column."""

    def __init__(self, eigenvalues, eigenvectors):
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors


def _fix_signs(vectors):
    # First significant component positive, columnwise: a column's lead is
    # its first entry above 1e-12 times its largest magnitude, or its first
    # entry where none is.
    magnitudes = np.abs(vectors)
    significant = magnitudes > 1e-12 * magnitudes.max(axis=0)
    lead = np.argmax(significant, axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0.0
    np.negative(vectors, out=vectors, where=flip)


def solve_generalized(a_matrix, b_matrix, count):
    """First ``count`` eigenpairs of A x = lambda B x with B positive definite.

    Both matrices are checked here: square, nonempty, finite, symmetric to
    a tolerance and of one shape, with 1 <= count <= N.  Postconditions are
    validated before returning: B-orthonormality of the vectors to 1e-10,
    and for each pair a backward error
    |A x - lambda B x| / ((|A|_F + |lambda| |B|_F) |x|) of at most 1e-10.
    """
    a_mat = _as_symmetric(a_matrix, "A")
    b_mat = _as_symmetric(b_matrix, "B")
    if a_mat.shape != b_mat.shape:
        raise InvalidParameterError(
            f"A and B must share a shape, got {a_mat.shape} and {b_mat.shape}"
        )
    n = a_mat.shape[0]
    _require_int(count, "count", 1)
    if count > n:
        raise InvalidParameterError(f"count={count} exceeds the matrix size {n}")
    return _solve_by_class(a_mat, b_mat, count, (np.arange(n),))


def _solve_by_class(a_mat, b_mat, count, classes):
    # The one solve (module docstring), for a pencil that couples no two of
    # the given index classes.  Its operands are trusted: float arrays of
    # one shape that pass _as_symmetric, with 1 <= count <= N.  Every caller
    # meets that by construction (module docstring).  Ties among the kept
    # values keep class order, which makes each class's kept pairs its
    # leading ones.
    n = a_mat.shape[0]
    diag = np.diagonal(b_mat).copy()
    if np.any(diag <= 0.0):
        index = int(np.argmax(diag <= 0.0))
        raise NotPositiveDefiniteError(
            f"diagonal entry {diag[index]} of B at index {index} is not positive",
            index=index,
            pivot=float(diag[index]),
        )
    scale = 1.0 / np.sqrt(diag)
    solved = [_reduced_eigh(a_mat, b_mat, scale, index) for index in classes]
    values = np.concatenate([eigenvalues for eigenvalues, _, _ in solved])
    owner = np.repeat(np.arange(len(classes)), [index.size for index in classes])
    keep = np.argsort(values, kind="stable")[:count]
    eigenvalues = values[keep]
    vectors = np.zeros((n, count))
    for c, (index, (_, transformed, lower)) in enumerate(zip(classes, solved)):
        columns = np.flatnonzero(owner[keep] == c)
        if columns.size:
            # L^-T times the class's leading reduced vectors.  At least two
            # columns are solved: BLAS solves a single right-hand side with
            # another kernel, which rounds differently, and each vector's
            # bits must not depend on count.
            back = _solve_lower(lower, transformed[:, : max(columns.size, 2)], trans="T")
            vectors[index[:, None], columns] = back[:, : columns.size] * scale[index, None]
    _fix_signs(vectors)
    gram = vectors.T @ b_mat @ vectors
    ortho_dev = float(np.max(np.abs(gram - np.eye(count))))
    if ortho_dev > ORTHONORMALITY_TOL:
        raise ConvergenceError(
            f"eigenvectors deviate from B-orthonormality by {ortho_dev}"
        )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norm_a, norm_b = float(np.linalg.norm(a_mat)), float(np.linalg.norm(b_mat))
        residuals = np.linalg.norm(a_mat @ vectors - b_mat @ vectors * eigenvalues, axis=0)
        scales = (norm_a + np.abs(eigenvalues) * norm_b) * np.linalg.norm(vectors, axis=0)
        # A zero residual is a zero error, also where its scale is zero; a
        # residual that is not finite gives an error that is not finite.
        errors = np.divide(residuals, scales, out=np.zeros(count), where=residuals != 0.0)
    worst = float(errors.max())
    # An overflowed norm or residual would make the comparison below vacuous.
    if not (math.isfinite(norm_a) and math.isfinite(norm_b) and math.isfinite(worst)):
        raise ConvergenceError(
            f"the residual check overflowed: |A| = {norm_a}, |B| = {norm_b}, "
            f"worst pair backward error = {worst}"
        )
    if worst > RESIDUAL_TOL:
        raise ConvergenceError(f"pair backward error {worst} exceeds {RESIDUAL_TOL}")
    return EigenSolution(eigenvalues, vectors)


def _reduced_eigh(a_mat, b_mat, scale, index):
    # Every eigenvalue of the principal sub-pencil on index, ascending, with
    # the eigenvectors of L^-1 A L^-T and the factor L of its Jacobi-scaled B.
    # The gathered A is scaled in place, and the scaling's buffer becomes the
    # scaled B; at most three N x N work arrays are alive at once (module
    # docstring).
    rows, part = index[:, None], scale[index]
    with np.errstate(over="ignore", invalid="ignore"):
        a_scaled = a_mat[rows, index]
        b_scaled = np.outer(part, part)
        a_scaled *= b_scaled
        b_scaled *= b_mat[rows, index]
    if not (_finite(a_scaled) and _finite(b_scaled)):
        raise NumericalError("the Jacobi scaling by the diagonal of B overflows")
    try:
        lower = cholesky_spd(b_scaled)
    except NotPositiveDefiniteError as exc:
        # the pivot's index in the whole pencil, not in its class
        whole = int(index[exc.index])
        message = str(exc).replace(f" at index {exc.index} ", f" at index {whole} ", 1)
        raise NotPositiveDefiniteError(message, index=whole, pivot=exc.pivot) from None
    del b_scaled
    half = _solve_lower(lower, a_scaled)
    del a_scaled
    reduced = _solve_lower(lower, half.T)
    del half
    # R + R.T is exactly symmetric and C-ordered, so its transpose is the
    # Fortran-ordered operand that LAPACK overwrites with the vectors.
    with np.errstate(over="ignore"):
        sym = reduced + reduced.T
    del reduced
    sym *= 0.5
    if not _finite(sym):
        raise NumericalError("the reduced matrix L^-1 A L^-T overflows")
    try:
        eigenvalues, transformed = sys.modules[__name__].eigh(
            sym.T, driver="ev", overwrite_a=True, check_finite=False
        )
    except LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigeniteration failed: {exc}") from None
    return eigenvalues, transformed, lower


def _solve_lower(lower, rhs, trans=0):
    # LAPACK's triangular solve with the factor, looked up now, so patches apply.
    return sys.modules[__name__].solve_triangular(
        lower, rhs, trans=trans, lower=True, overwrite_b=True, check_finite=False
    )


def _check_request(domain, l, m, count):
    # solve_buckling's argument checks, which a ladder also runs for every
    # rung before it solves any: galerkin's check of the domain, l, m and
    # the caps, then 1 <= count <= m**dim.
    _checked_basis(domain, l, m)
    _require_int(count, "count", 1)
    if count > m**domain.dim:
        raise InvalidParameterError(f"count={count} exceeds the basis size {m**domain.dim}")


def solve_buckling(domain, l, m, count):
    """Buckling spectrum of order l on a domain: A_l x = lambda A_1 x.

    Returns a computed Spectrum with the eigenvectors and assembled forms
    retained for later verification; only the pencil's two forms are built
    here, and the others on their first read.  n is the domain dimension.
    Above m = ``CONDITIONING_NOTE`` it warns that eigenvalues may lose digits.
    Before solving, the unscaled A_1 and A_l must pass ``cholesky_spd``, or
    ``NotPositiveDefiniteError`` names the failing pivot.  A pencil whose
    parity classes all have ``SPLIT_MIN_ROWS`` rows (m >= 10 on a
    rectangle, m >= 6 on a box) is solved one class at a time; each of its
    vectors is then exactly zero outside one class.
    """
    _check_request(domain, l, m, count)
    forms = assemble_forms(domain, l, m)
    if m > CONDITIONING_NOTE:
        warnings.warn(
            f"basis size m={m} is above {CONDITIONING_NOTE}; the mass matrix grows "
            "ill conditioned and eigenvalues may lose digits",
            stacklevel=2,
        )
    cholesky_spd(forms.b_matrix)
    cholesky_spd(forms._a_matrix)
    return _spectrum(forms, count)


def _spectrum(forms, count):
    # The first count eigenpairs of the pencil (A_l, A_1) of assembled forms,
    # solved one parity class at a time once every class has SPLIT_MIN_ROWS
    # rows, and as the single class of all N rows below that.  Only the
    # pencil is read, so no other form is built.  The forms are not checked
    # again: they meet _solve_by_class's precondition (module docstring).
    classes = _parity_classes(forms.m, forms.domain.dim)
    if min(index.size for index in classes) < SPLIT_MIN_ROWS:
        classes = (np.arange(forms.n_basis),)
    solution = _solve_by_class(forms._a_matrix, forms.b_matrix, count, classes)
    if float(solution.eigenvalues[0]) <= 0.0:
        raise InternalConsistencyError(
            f"nonpositive buckling eigenvalue {solution.eigenvalues[0]} from a definite pencil"
        )
    return Spectrum(
        values=tuple(float(v) for v in solution.eigenvalues),
        n=forms.domain.dim,
        l=forms.l,
        provenance="computed",
        vectors=solution.eigenvectors,
        forms=forms,
        m=forms.m,
    )
