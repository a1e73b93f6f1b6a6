import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from buckbounds import (
    ConvergenceError,
    Domain,
    InvalidParameterError,
    NotPositiveDefiniteError,
    NumericalError,
    assemble_forms,
    cholesky_spd,
    convergence_study,
    eigen,
    rayleigh_quantities,
    run_verification,
    solve_buckling,
    solve_generalized,
)
from buckbounds.galerkin import _parity_classes

import oracles


def test_cholesky_example():
    factor = cholesky_spd([[4.0, 2.0], [2.0, 5.0]])
    assert np.array_equal(factor, [[2.0, 0.0], [1.0, 2.0]])


def test_cholesky_matches_numpy_on_random_spd():
    rng = np.random.default_rng(21)
    for _ in range(25):
        size = rng.integers(1, 12)
        seed = rng.normal(size=(size, size))
        matrix = seed @ seed.T + size * np.eye(size)
        ours = cholesky_spd(matrix)
        ref = np.linalg.cholesky(matrix)
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)
        assert np.allclose(ours @ ours.T, matrix, rtol=1e-12, atol=1e-12)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky_spd([[1.0, 2.0], [2.0, 1.0]])
    assert err.value.index == 1
    assert err.value.pivot < 0
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_spd(np.zeros((2, 2)))
    with pytest.raises(InvalidParameterError):
        cholesky_spd([[1.0, 0.5], [0.0, 1.0]])


def test_cholesky_rejects_a_matrix_that_is_not_square():
    with pytest.raises(InvalidParameterError, match=r"square matrix, got shape \(2, 3\)"):
        cholesky_spd(np.ones((2, 3)))


def test_solve_generalized_matches_scipy():
    rng = np.random.default_rng(22)
    for _ in range(15):
        size = int(rng.integers(2, 15))
        seed_a = rng.normal(size=(size, size))
        seed_b = rng.normal(size=(size, size))
        a_mat = seed_a @ seed_a.T + 0.1 * np.eye(size)
        b_mat = seed_b @ seed_b.T + size * np.eye(size)
        count = int(rng.integers(1, size + 1))
        solution = solve_generalized(a_mat, b_mat, count)
        reference = scipy.linalg.eigh(a_mat, b_mat, eigvals_only=True)
        assert np.allclose(solution.eigenvalues, reference[:count], rtol=1e-9, atol=1e-11)
        vecs = solution.eigenvectors
        gram = vecs.T @ b_mat @ vecs
        assert np.allclose(gram, np.eye(count), atol=1e-9)
        for j in range(count):
            residual = a_mat @ vecs[:, j] - solution.eigenvalues[j] * (b_mat @ vecs[:, j])
            assert np.linalg.norm(residual) <= 1e-7 * np.linalg.norm(a_mat)


def test_solve_generalized_deterministic_sign_convention():
    rng = np.random.default_rng(23)
    seed_a = rng.normal(size=(8, 8))
    a_mat = seed_a @ seed_a.T + np.eye(8)
    b_mat = np.eye(8)
    first = solve_generalized(a_mat, b_mat, 5)
    second = solve_generalized(a_mat.copy(), b_mat.copy(), 5)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    for j in range(5):
        column = first.eigenvectors[:, j]
        lead = column[np.abs(column) > 1e-12 * np.abs(column).max()][0]
        assert lead > 0


def _assert_leading_pairs(a_mat, b_mat, counts):
    full = solve_generalized(a_mat, b_mat, a_mat.shape[0])
    for count in counts:
        solution = solve_generalized(a_mat, b_mat, count)
        assert solution.eigenvalues.tobytes() == full.eigenvalues[:count].tobytes()
        assert solution.eigenvectors.flags.c_contiguous
        kept = np.ascontiguousarray(full.eigenvectors[:, :count])
        assert solution.eigenvectors.tobytes() == kept.tobytes(), (a_mat.shape[0], count)


def test_fewer_pairs_are_the_leading_pairs_bit_for_bit():
    # Only the kept vectors are back-transformed; no bit may depend on count.
    rng = np.random.default_rng(24)
    for size in range(1, 151):
        seed_a = rng.normal(size=(size, size))
        seed_b = rng.normal(size=(size, size))
        a_mat = seed_a + seed_a.T
        b_mat = seed_b @ seed_b.T + size * np.eye(size)
        counts = {c for c in (1, 2, size // 2) if 1 <= c <= size}
        _assert_leading_pairs(a_mat, b_mat, sorted(counts))
    # the pencils behind the CLI's golden outputs
    for domain, l, m in (
        (Domain.interval(1.0), 2, 1),
        (Domain.interval(1.0), 2, 4),
        (Domain.rectangle(1.0, 1.0), 2, 3),
        (Domain.rectangle(1.0, 1.0), 2, 4),
        (Domain.rectangle(0.9, 1.3), 2, 3),
        (Domain.rectangle(1.15, 0.7), 2, 3),
        (Domain.rectangle(1.0, 1.0), 3, 3),
    ):
        forms = assemble_forms(domain, l, m)
        counts = range(1, forms.n_basis + 1)
        _assert_leading_pairs(forms.matrices[-1], forms.b_matrix, counts)


def test_interval_single_function_is_exactly_42():
    spectrum = solve_buckling(Domain.interval(1.0), 2, 1, 1)
    assert spectrum.values == (42.0,)
    assert spectrum.provenance == "computed"
    assert spectrum.n == 1 and spectrum.l == 2 and spectrum.m == 1


def test_interval_converges_to_frequency_equation_roots():
    spectrum = solve_buckling(Domain.interval(1.0), 2, 10, 3)
    assert spectrum.values[0] == pytest.approx(4.0 * math.pi**2, rel=1e-10)
    assert spectrum.values[1] == pytest.approx(oracles.interval_order2_eigenvalue(2), rel=1e-9)
    # Ritz accuracy decays with the index at fixed basis size
    assert spectrum.values[2] == pytest.approx(oracles.interval_order2_eigenvalue(3), rel=1e-5)


def test_interval_ode_referee_matches_the_closed_forms():
    # at l = 2 the even modes are 1 + cos(2 pi j x), with Lambda = 4 pi**2 j**2
    roots = oracles.ode_interval_eigenvalues(2, 4)
    assert roots[0] == pytest.approx(4.0 * math.pi**2, rel=1e-15)
    assert roots[2] == pytest.approx(16.0 * math.pi**2, rel=1e-15)
    for index, root in enumerate(roots, start=1):
        assert root == pytest.approx(oracles.interval_order2_eigenvalue(index), rel=1e-13)


# The largest relative error of the first four eigenvalues at m = 24 on the
# unit interval against the ODE referee, rounded up.  The exact forms match
# the ODE far closer than this, so what is lost is rounding, in the forms or
# in LAPACK: a better-conditioned solve should tighten these.
INTERVAL_M24_TOLERANCE = {2: 1.6e-13, 3: 2.1e-12, 4: 5.8e-11, 5: 1.9e-8}


@pytest.mark.parametrize("l", sorted(INTERVAL_M24_TOLERANCE))
def test_interval_spectrum_matches_the_ode_referee(l):
    roots = oracles.ode_interval_eigenvalues(l, 4)
    with pytest.warns(UserWarning, match="^basis size m=24 is above 16"):
        values = solve_buckling(Domain.interval(1.0), l, 24, 4).values
    assert values == pytest.approx(roots, rel=INTERVAL_M24_TOLERANCE[l])
    # Galerkin values bound the true ones from above, so the referee can miss
    # no root: below every computed value it finds at least as many
    for value in values:
        assert sum(root < value for root in roots) >= sum(v < value for v in values)


def test_square_spectrum_shape():
    spectrum = solve_buckling(Domain.rectangle(1.0, 1.0), 2, 6, 4)
    values = spectrum.values
    assert all(b >= a for a, b in zip(values, values[1:]))
    # square symmetry forces a degenerate second pair
    assert values[1] == pytest.approx(values[2], rel=1e-10)
    assert len(spectrum.vectors) == spectrum.forms.n_basis
    assert len(spectrum.vectors[0]) == 4


def test_rectangle_scaling_covariance():
    # scaling the domain by c scales buckling eigenvalues by 1/c^2, on a
    # rectangle and on a box
    for edges in ((1.0, 2.0), (1.0, 2.0, 1.5)):
        base = solve_buckling(Domain(edges), 2, 5, 3)
        scaled = solve_buckling(Domain(tuple(2.0 * e for e in edges)), 2, 5, 3)
        for a, b in zip(base.values, scaled.values):
            assert b == pytest.approx(a / 4.0, rel=1e-9)


def test_cube_spectrum_has_a_triple_second_eigenvalue():
    # the cube's axis permutations force lambda_2 = lambda_3 = lambda_4 at
    # every basis size
    cube = Domain((1.0, 1.0, 1.0))
    for l, first in ((2, 64.96543387), (3, 8465.787625)):
        for m in range(4, 9):
            values = solve_buckling(cube, l, m, 4).values
            assert values[1] == pytest.approx(values[3], rel=1e-10), (l, m)
        assert values[0] == pytest.approx(first, rel=1e-8)


def test_rayleigh_ritz_monotone_in_basis_size():
    previous = None
    for m in (2, 4, 6, 8):
        values = solve_buckling(Domain.interval(1.0), 3, m, 2).values
        if previous is not None:
            assert values[0] <= previous[0] + 1e-12
            assert values[1] <= previous[1] + 1e-12
        previous = values


def test_solve_buckling_eigenvector_normalization():
    spectrum = solve_buckling(Domain.rectangle(1.0, 1.0), 3, 4, 3)
    vectors = np.array(spectrum.vectors)
    for j in range(3):
        quantities = rayleigh_quantities(vectors[:, j], spectrum.forms)
        assert quantities[0] == pytest.approx(1.0, abs=1e-10)


def test_solve_buckling_validation():
    with pytest.raises(InvalidParameterError):
        solve_buckling(Domain.interval(1.0), 2, 3, 4)
    with pytest.raises(InvalidParameterError):
        solve_buckling(Domain.interval(1.0), 2, 3, 0)
    with pytest.raises(InvalidParameterError, match="^domain must be a Domain instance$"):
        solve_buckling("x", 2, 3, 1)


def test_solve_buckling_checks_count_before_assembling(monkeypatch):
    def refuse(*args):
        raise AssertionError("assembled forms for an invalid count")

    monkeypatch.setattr(eigen, "assemble_forms", refuse)
    for count in (0, 1.0, 577, 1000):
        with pytest.raises(InvalidParameterError, match="count"):
            solve_buckling(Domain.rectangle(), 3, 24, count)


def test_only_solves_factor_and_each_coarse_rung_factors_once(monkeypatch):
    # Assembly factors nothing.  A solve checks the unscaled A_1 and A_l, then
    # the solver factors its scaled B; a ladder's coarser rungs skip the
    # checks and are factored by the solver alone.
    sizes = []
    factor = eigen.cholesky_spd

    def counted(matrix):
        sizes.append(len(matrix))
        return factor(matrix)

    monkeypatch.setattr(eigen, "cholesky_spd", counted)
    domain = Domain.rectangle(1.0, 1.3)
    assemble_forms(domain, 3, 5)
    assert sizes == []
    solve_buckling(domain, 3, 5, 2)
    assert sizes == [25, 25, 25]
    sizes.clear()
    convergence_study(domain, 3, [2, 3, 5], 2)
    assert sizes == [25, 25, 25, 4, 9]
    sizes.clear()
    run_verification(domain, 3, 8, 1)  # the ladder 2, 4, 8
    assert sizes == [64, 64, 64, 4, 16]
    sizes.clear()
    # a split solve factors each parity class's scaled B instead
    solve_buckling(domain, 2, 10, 2)
    assert sizes == [100, 100, 25, 25, 25, 25]
    # the crossover on both sides: the largest whole pencils and the
    # smallest split box
    box = Domain((1.0, 1.3, 0.8))
    for shape, m, expected in (
        (domain, 9, [81, 81, 81]),
        (box, 5, [125, 125, 125]),
        (box, 6, [216, 216] + [27] * 8),
    ):
        sizes.clear()
        solve_buckling(shape, 2, m, 2)
        assert sizes == expected, (shape.dim, m)


def _notes(call, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(*args)
    return [str(w.message) for w in caught]


def test_conditioning_note_is_the_solves_at_its_finest_size():
    interval, square = Domain.interval(1.0), Domain.rectangle(1.0, 1.0)
    note = (
        "basis size m={} is above 16; the mass matrix grows ill conditioned "
        "and eigenvalues may lose digits"
    )
    assert _notes(solve_buckling, interval, 2, 16, 1) == []
    assert _notes(solve_buckling, interval, 3, 17, 1) == [note.format(17)]
    assert _notes(convergence_study, interval, 2, [8, 16], 1) == []
    assert _notes(convergence_study, interval, 2, [17, 20], 1) == [note.format(20)]
    assert _notes(run_verification, square, 2, 17, 1) == [note.format(17)]


def test_residual_failure_names_the_threshold_it_compares(monkeypatch):
    # |A| < 1 here, so the residual is compared against 1e-8 * max(|A|, 1) = 1e-8
    eigh = eigen.eigh

    def shifted(*args, **kwargs):
        values, vectors = eigh(*args, **kwargs)
        return values + 1e-6, vectors

    monkeypatch.setattr(eigen, "eigh", shifted)
    with pytest.raises(ConvergenceError, match=r"exceeds 1e-08 \* max\(\|A\|, 1\) = 1e-08$"):
        solve_generalized(0.1 * np.eye(3), np.eye(3), 2)


def test_vectors_that_are_not_b_orthonormal_are_refused(monkeypatch):
    # doubled vectors have Gram matrix 4 I, which deviates from I by 3
    eigh = eigen.eigh

    def doubled(*args, **kwargs):
        values, vectors = eigh(*args, **kwargs)
        return values, 2.0 * vectors

    monkeypatch.setattr(eigen, "eigh", doubled)
    with pytest.raises(ConvergenceError, match=r"^eigenvectors deviate from B-orthonormality by 3\.0$"):
        solve_generalized(np.diag([1.0, 2.0, 3.0]), np.eye(3), 2)


def test_a_failed_eigeniteration_is_a_convergence_error(monkeypatch):
    def failed(*args, **kwargs):
        raise np.linalg.LinAlgError("stub")

    monkeypatch.setattr(eigen, "eigh", failed)
    with pytest.raises(ConvergenceError, match="^symmetric eigeniteration failed: stub$"):
        solve_generalized(np.eye(3), np.eye(3), 1)


def test_solve_generalized_validation():
    with pytest.raises(InvalidParameterError):
        solve_generalized(np.eye(3), np.eye(2), 1)
    with pytest.raises(InvalidParameterError):
        solve_generalized(np.eye(3), np.eye(3), 4)
    with pytest.raises(NotPositiveDefiniteError):
        solve_generalized(np.eye(2), np.diag([1.0, -1.0]), 1)


def test_complex_matrices_are_refused_not_truncated():
    # numpy's float conversion would keep the real part with only a
    # ComplexWarning, and the first pencil would solve to 2.0
    with pytest.raises(InvalidParameterError, match="^A must be real$"):
        solve_generalized(np.eye(2) * (2 + 5j), np.eye(2), 1)
    with pytest.raises(InvalidParameterError, match="^B must be real$"):
        solve_generalized(np.eye(2), [[1, 0], [0, 1 + 0j]], 1)
    with pytest.raises(InvalidParameterError, match="^matrix must be real$"):
        cholesky_spd(np.eye(2) * (1 + 1j))


def test_solve_buckling_checks_l_and_the_caps_with_count(monkeypatch):
    # the request's l, m and caps are galerkin's one check, made with the
    # count check and before anything is assembled
    def refuse(*args):
        raise AssertionError("assembled forms for an invalid request")

    monkeypatch.setattr(eigen, "assemble_forms", refuse)
    box = Domain((1.0, 1.0, 1.0))
    for domain, l, m, message in (
        (box, 1, 2, "^l must be >= 2, got 1$"),
        (box, 2, 9, r"^basis size m\*\*dim = 729 exceeds the supported cap 576$"),
        (Domain.interval(1.0), 2, 25, "^m=25 exceeds the supported cap 24$"),
        ("x", 2, 2, "^domain must be a Domain instance$"),
    ):
        with pytest.raises(InvalidParameterError, match=message):
            solve_buckling(domain, l, m, 1)


def _assert_matches_referee(a_mat, b_mat, count):
    values, vectors = oracles.generalized_eigenpairs(a_mat, b_mat, count)
    try:
        solution = solve_generalized(a_mat, b_mat, count)
    except ConvergenceError as exc:
        # the referee's pairs fail the same residual check, to the last bit
        worst = float(np.max(np.linalg.norm(a_mat @ vectors - b_mat @ vectors * values, axis=0)))
        assert str(exc).startswith(f"pair residual {worst} exceeds"), str(exc)
        return
    assert np.array_equal(solution.eigenvalues, values)
    assert np.array_equal(solution.eigenvectors, vectors)


def test_solve_matches_the_step_by_step_referee_bit_for_bit():
    # the lean solve reuses buffers and skips scipy's checks, but LAPACK must
    # see the same operands: every eigenvalue and vector bit stays the same
    cases = [(Domain.interval(1.0), l, m) for l in range(2, 7) for m in range(1, 25)]
    cases += [(Domain.rectangle(*edges), 2, 3) for edges in (
        (0.85, 0.85), (1.05, 1.05), (1.2, 1.2), (1.4, 1.4),
        (0.9, 1.3), (1.15, 0.7), (0.8, 1.05), (1.35, 0.95),
    )]
    cases += [(Domain.rectangle(1.3, 0.7), l, m) for l in (2, 3) for m in range(1, 13)]
    cases.append((Domain((1.0, 1.3, 0.8)), 2, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the m > 16 note
        for domain, l, m in cases:
            forms = assemble_forms(domain, l, m)
            _assert_matches_referee(forms.matrices[-1], forms.b_matrix, min(8, forms.n_basis))
    rng = np.random.default_rng(25)
    for trial in range(200):
        size = 1 if trial < 5 else int(rng.integers(1, 41))
        seed_a = rng.normal(size=(size, size))
        seed_b = rng.normal(size=(size, size))
        a_mat = seed_a + seed_a.T
        b_mat = seed_b @ seed_b.T + size * np.eye(size)
        _assert_matches_referee(a_mat, b_mat, int(rng.integers(1, size + 1)))


def test_non_finite_and_empty_input_is_refused_once(monkeypatch):
    # NaN, inf and 0 x 0 inputs are usage errors of both entry points, and
    # nothing reaches LAPACK, which is told not to check finiteness
    def refuse(*args, **kwargs):
        raise AssertionError("a refused input reached LAPACK")

    monkeypatch.setattr(eigen, "solve_triangular", refuse)
    monkeypatch.setattr(eigen, "eigh", refuse)
    nan_a = np.eye(3)
    nan_a[1, 2] = nan_a[2, 1] = math.nan
    with pytest.raises(InvalidParameterError, match="A has an entry that is NaN or infinite"):
        solve_generalized(nan_a, np.eye(3), 1)
    with pytest.raises(InvalidParameterError, match="B has an entry that is NaN or infinite"):
        solve_generalized(np.eye(3), nan_a, 1)
    inf_b = np.eye(2)
    inf_b[0, 0] = math.inf
    with pytest.raises(InvalidParameterError, match="B has an entry"):
        solve_generalized(np.eye(2), inf_b, 1)
    for matrix in (nan_a, inf_b, -inf_b):
        with pytest.raises(InvalidParameterError, match="matrix has an entry"):
            cholesky_spd(matrix)
    empty = np.zeros((0, 0))
    with pytest.raises(InvalidParameterError, match="A must not be empty"):
        solve_generalized(empty, empty, 1)
    with pytest.raises(InvalidParameterError, match="matrix must not be empty"):
        cholesky_spd(empty)


def test_overflow_before_lapack_is_a_numerical_error():
    # 1.5e308 * 1e300 overflows in the scaled A; 1e-310 on B's diagonal
    # makes the scaling itself overflow; a pivot near 1e-13 lifts 1e305 past
    # the float range in L^-1 A L^-T.  None may warn (tier-1 turns warnings
    # into errors) or reach LAPACK as inf.
    with pytest.raises(NumericalError, match="Jacobi scaling"):
        solve_generalized(1.5e308 * np.eye(2), 1e-300 * np.eye(2), 1)
    with pytest.raises(NumericalError, match="Jacobi scaling"):
        solve_generalized(np.eye(2), np.diag([1e-310, 1.0]), 1)
    near_singular = np.array([[1.0, 1.0 - 1e-13], [1.0 - 1e-13, 1.0]])
    with pytest.raises(NumericalError, match="reduced matrix"):
        solve_generalized(1e305 * np.eye(2), near_singular, 1)
    # entries so far apart that A - A^T overflows are not symmetric, silently
    with pytest.raises(InvalidParameterError, match="not symmetric"):
        cholesky_spd([[1.0, 1e308], [-1e308, 1.0]])


def test_solve_keeps_at_most_three_work_arrays():
    # traced allocations beside the inputs, in units of one N x N array:
    # the solve needs the scaled A, the scaled B and the factor at once, and
    # the pivot loop the factor alone (7.14 and 2.00 before the buffers
    # were shared)
    size = 300
    rng = np.random.default_rng(26)
    seed_a = rng.normal(size=(size, size))
    seed_b = rng.normal(size=(size, size))
    a_mat = seed_a @ seed_a.T + size * np.eye(size)
    b_mat = seed_b @ seed_b.T + size * np.eye(size)
    solve_generalized(a_mat, b_mat, 4)  # loads scipy outside the trace
    # the same pencil cut into two uncoupled classes, solved one at a time
    classes = (np.arange(0, size, 2), np.arange(1, size, 2))
    split_a, split_b = a_mat.copy(), b_mat.copy()
    for matrix in (split_a, split_b):
        matrix[np.ix_(classes[0], classes[1])] = 0.0
        matrix[np.ix_(classes[1], classes[0])] = 0.0
    square = 8 * size * size
    for call, limit in ((lambda: solve_generalized(a_mat, b_mat, 4), 3.5),
                        (lambda: eigen._solve_by_class(split_a, split_b, 4, classes), 3.5),
                        (lambda: cholesky_spd(b_mat), 1.25)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * square, peak / square


SPLIT_CASES = [
    (edges, l, m)
    for l in (2, 3)
    for edges, sizes in (
        ((1.0, 1.0), (10, 16, 24)),
        ((1.3, 0.7), (10, 16, 24)),
        ((2.5, 0.4), (10, 16, 24)),
        ((1.0, 1.0, 1.0), (6, 8)),
        ((1.2, 0.9, 0.8), (6, 8)),
    )
    for m in sizes
]


@pytest.mark.parametrize("edges, l, m", SPLIT_CASES, ids=str)
def test_split_solve_matches_the_whole_pencil(edges, l, m):
    # above the size rule each parity class is solved on its own; the values
    # agree with the whole pencil's, and each vector lives in one class
    forms = assemble_forms(Domain(edges), l, m)
    assert (m // 2) ** len(edges) >= eigen.SPLIT_MIN_ROWS
    whole = solve_generalized(forms.matrices[-1], forms.b_matrix, 8)
    split = eigen._spectrum(forms, 8)
    assert split.values == pytest.approx(whole.eigenvalues, rel=1e-9)
    for column in split.vectors.T:
        inside = [index for index in _parity_classes(m, len(edges)) if np.any(column[index])]
        assert len(inside) == 1
        assert np.count_nonzero(column) == np.count_nonzero(column[inside[0]])


def test_split_pairs_do_not_depend_on_count():
    for domain, m in ((Domain.rectangle(1.3, 0.7), 10), (Domain((1.2, 0.9, 0.8)), 6)):
        forms = assemble_forms(domain, 3, m)
        full = eigen._spectrum(forms, 12)
        for count in range(1, 13):
            spectrum = eigen._spectrum(forms, count)
            assert spectrum.values == full.values[:count]
            kept = np.ascontiguousarray(full.vectors[:, :count])
            assert spectrum.vectors.tobytes() == kept.tobytes(), (m, count)


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("m", [20, 24])
def test_square_double_eigenvalue_is_split_free(l, m):
    # the swapped classes (even, odd) and (odd, even) carry lambda_2 and
    # lambda_3; solved apart they agree far closer than in the whole pencil
    with pytest.warns(UserWarning, match=f"^basis size m={m} is above 16"):
        values = solve_buckling(Domain.rectangle(1.0, 1.0), l, m, 3).values
    assert values[2] == pytest.approx(values[1], rel=1e-12)


def test_split_solve_passes_where_the_whole_residual_fails():
    # the whole pencil's worst residual is 3.01e-8 against a 1e-8 threshold
    spectrum = solve_buckling(Domain((1.0, 1.0)), 5, 10, 4)
    assert len(spectrum.values) == 4
    assert all(b >= a > 0.0 for a, b in zip(spectrum.values, spectrum.values[1:]))


def test_split_pivot_failure_names_its_index_in_the_whole_pencil():
    # classes {0, 2} and {1, 3}: the second one's B is singular at its row 1
    b_mat = np.eye(4)
    b_mat[1, 3] = b_mat[3, 1] = 1.0
    classes = (np.array([0, 2]), np.array([1, 3]))
    with pytest.raises(NotPositiveDefiniteError, match=r"^pivot \S+ at index 3 is not above") as err:
        eigen._solve_by_class(np.eye(4), b_mat, 2, classes)
    assert err.value.index == 3


def test_each_pencil_is_checked_once(monkeypatch):
    # the two unscaled cholesky_spd calls check the forms, and each class's
    # scaled factorization checks its own B; the solver trusts the forms
    checked = []
    as_symmetric = eigen._as_symmetric

    def counting(matrix, name):
        checked.append(name)
        return as_symmetric(matrix, name)

    monkeypatch.setattr(eigen, "_as_symmetric", counting)
    cases = [((1.0,), 2, 8, 3), ((1.0, 1.0), 2, 5, 3), ((1.0, 1.0), 3, 9, 3),
             ((1.3, 0.7), 2, 10, 4 + 2), ((1.2, 0.9, 0.8), 2, 6, 8 + 2)]
    for edges, l, m, expected in cases:
        checked.clear()
        solve_buckling(Domain(edges), l, m, 4)
        assert len(checked) == expected, (edges, m, checked)
    checked.clear()
    solve_generalized(2.0 * np.eye(3), np.eye(3), 2)
    assert checked == ["A", "B", "matrix"]


def _solved_bits(solve):
    try:
        values, vectors = solve()
    except ConvergenceError as exc:
        return str(exc)
    return np.asarray(values).tobytes(), vectors.tobytes(), vectors.flags.c_contiguous


def test_whole_pencils_solve_as_solve_generalized_does():
    # below the split rule _spectrum solves the single class of all N rows,
    # with no check of its own: the same bits as the checked public solve
    cases = [(Domain.interval(1.0), l, m) for l in range(2, 7) for m in range(1, 25)]
    cases += [(Domain.rectangle(*edges), l, m)
              for edges in ((1.0, 1.0), (1.3, 0.7)) for l in (2, 3) for m in range(1, 10)]
    for domain, l, m in cases:
        forms = assemble_forms(domain, l, m)
        count = min(8, forms.n_basis)
        assert min(index.size for index in _parity_classes(m, domain.dim)) < eigen.SPLIT_MIN_ROWS

        def private():
            spectrum = eigen._spectrum(forms, count)
            return spectrum.values, spectrum.vectors

        def public():
            solution = solve_generalized(forms._a_matrix, forms.b_matrix, count)
            return solution.eigenvalues, solution.eigenvectors

        assert _solved_bits(private) == _solved_bits(public), (domain, l, m)
