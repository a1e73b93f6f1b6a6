import math

import numpy as np
import pytest
import scipy.linalg

from buckbounds import (
    ConvergenceError,
    Domain,
    InvalidParameterError,
    NotPositiveDefiniteError,
    assemble_forms,
    cholesky_spd,
    eigen,
    rayleigh_quantities,
    solve_buckling,
    solve_generalized,
)

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


def test_solve_buckling_checks_count_before_assembling(monkeypatch):
    def refuse(*args):
        raise AssertionError("assembled forms for an invalid count")

    monkeypatch.setattr(eigen, "assemble_forms", refuse)
    for count in (0, 1.0, 577, 1000):
        with pytest.raises(InvalidParameterError, match="count"):
            solve_buckling(Domain.rectangle(), 3, 24, count)


def test_residual_failure_names_the_threshold_it_compares(monkeypatch):
    # |A| < 1 here, so the residual is compared against 1e-8 * max(|A|, 1) = 1e-8
    eigh = eigen.eigh

    def shifted(*args, **kwargs):
        values, vectors = eigh(*args, **kwargs)
        return values + 1e-6, vectors

    monkeypatch.setattr(eigen, "eigh", shifted)
    with pytest.raises(ConvergenceError, match=r"exceeds 1e-08 \* max\(\|A\|, 1\) = 1e-08$"):
        solve_generalized(0.1 * np.eye(3), np.eye(3), 2)


def test_solve_generalized_validation():
    with pytest.raises(InvalidParameterError):
        solve_generalized(np.eye(3), np.eye(2), 1)
    with pytest.raises(InvalidParameterError):
        solve_generalized(np.eye(3), np.eye(3), 4)
    with pytest.raises(NotPositiveDefiniteError):
        solve_generalized(np.eye(2), np.diag([1.0, -1.0]), 1)
