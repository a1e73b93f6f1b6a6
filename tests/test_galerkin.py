import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
import sympy

from buckbounds import (
    Basis1D,
    Domain,
    InvalidParameterError,
    NotPositiveDefiniteError,
    NumericalError,
    OperatorForms,
    assemble_forms,
    build_basis_1d,
    convergence_study,
    derivative_integral_table,
    export_forms,
    load_forms,
    solve_buckling,
)
from buckbounds import galerkin
from buckbounds.galerkin import DEGREE_CAP, _leading_forms, _parity_classes
from buckbounds.polyrec import Polynomial

import oracles


def test_domain_validation():
    assert Domain.interval(2.0).dim == 1
    assert Domain.rectangle(1.0, 3.0).edges == (1.0, 3.0)
    assert Domain((1, 2, 3)).dim == 3
    with pytest.raises(InvalidParameterError):
        Domain(())
    with pytest.raises(InvalidParameterError):
        Domain((1.0, -2.0))
    with pytest.raises(InvalidParameterError):
        Domain((1.0, 2.0, 3.0, 4.0))


def test_basis_satisfies_clamped_conditions_exactly():
    # The rows are the basis in t = 2x - 1, the form the table integrates:
    # every derivative of order < l vanishes at t = -1 and t = 1, the ends
    # x = 0 and x = 1, and row a has degree 2l + a.
    for l, m in itertools.product((2, 3, 4), (1, 4)):
        for a, row in enumerate(galerkin._basis_rows(l, m)):
            f = Polynomial(tuple(row))
            assert f.degree == 2 * l + a
            for order in range(l):
                g = f.derivative(order)
                assert g(Fraction(-1)) == 0
                assert g(Fraction(1)) == 0


def test_basis_matches_sympy_construction():
    # Row a holds the ascending t-coefficients of 2^(m-1) 4^l b_a with
    # b_a = x^l (1-x)^l L_a(2x - 1) at x = (t + 1) / 2, zero-padded to 2l + m.
    t = sympy.Symbol("t")
    x = (t + 1) / 2
    for l, m in itertools.product((2, 3, 4), (1, 3, 6)):
        rows = galerkin._basis_rows(l, m)
        assert rows.shape == (m, 2 * l + m)
        for a in range(m):
            expr = 2 ** (m - 1) * 4**l * x**l * (1 - x) ** l * sympy.legendre(a, 2 * x - 1)
            coeffs = sympy.Poly(sympy.expand(expr), t).all_coeffs()[::-1]
            assert all(c.is_Integer for c in coeffs)
            padded = [int(c) for c in coeffs] + [0] * (2 * l + m - len(coeffs))
            assert [type(c) for c in rows[a]] == [int] * (2 * l + m)
            assert list(rows[a]) == padded


def test_basis_cap_and_conditioning_warning(tmp_path):
    # The cap stays with the basis; the conditioning note is the solver's.
    with pytest.raises(InvalidParameterError):
        build_basis_1d(2, 25)
    with pytest.raises(InvalidParameterError):
        build_basis_1d(2, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_basis_1d(2, 17)
        export_forms(assemble_forms(Domain.interval(1.0), 2, 17), tmp_path / "forms.bin")
    with pytest.warns(UserWarning, match="basis size m=17 is above 16"):
        solve_buckling(Domain.interval(1.0), 2, 17, 1)


def test_basis_checks_itself_when_made_directly():
    # the table reads only l and m, so a basis built past the checks would
    # give a 30 x 30 block beyond the cap, or empty blocks at m = 0
    with pytest.raises(InvalidParameterError, match=f"m=30 exceeds the supported cap {DEGREE_CAP}"):
        derivative_integral_table(Basis1D(l=2, m=30), [1])
    with pytest.raises(InvalidParameterError, match="m must be >= 1, got 0"):
        Basis1D(2, 0)
    with pytest.raises(InvalidParameterError, match="l must be an integer, got 2.5"):
        Basis1D(2.5, 3)


def test_forms_constructor_refuses_what_export_could_not_load_back(tmp_path):
    # a form of the wrong size, an asymmetric or infinite one, and a domain
    # that is not a Domain are refused before export_forms could write them
    interval = Domain.interval(1.0)
    for domain, m, matrix, message in (
        (interval, 3, np.eye(2), "matrix 1 is not a finite symmetric 3 x 3 array"),
        (interval, 2, [[1, 2], [3, 4]], "matrix 1 is not a finite symmetric 2 x 2 array"),
        (interval, 2, [[1.0, np.inf], [np.inf, 1.0]], "matrix 1 is not a finite symmetric"),
        ("x", 2, np.eye(2), "^domain must be a Domain instance$"),
    ):
        with pytest.raises(InvalidParameterError, match=message):
            OperatorForms(domain, 2, m, [matrix] * 2)
    # a nested list comes back as a float array, and round-trips bit for bit
    forms = OperatorForms(Domain.rectangle(1.0, 2.0), 2, 2, [np.eye(4).tolist(), np.ones((4, 4))])
    assert isinstance(forms.b_matrix, np.ndarray) and forms.b_matrix.dtype == float
    assert np.array_equal(forms.b_matrix, np.eye(4))
    export_forms(forms, tmp_path / "forms.bin")
    back = load_forms(tmp_path / "forms.bin")
    assert [mat.tobytes() for mat in back.matrices] == [mat.tobytes() for mat in forms.matrices]


def test_forms_constructor_refuses_a_complex_matrix():
    # numpy's float conversion would keep B = I and drop the imaginary part
    # with only a ComplexWarning
    interval = Domain.interval(1.0)
    for matrix in (np.eye(2) * (1 + 1j), np.eye(2).astype(complex), [[1j, 0], [0, 1]]):
        with pytest.raises(InvalidParameterError, match="^matrix 1 must be real$"):
            OperatorForms(interval, 2, 2, [matrix] * 2)


def test_table_takes_only_a_basis():
    # anything else would be read for .l and .m unchecked: a tuple would
    # raise AttributeError, a fractional l TypeError, and m = 10**5 would
    # run past 15 s
    for basis in ((2, 3), SimpleNamespace(l=2.5, m=3), SimpleNamespace(l=2, m=10**5)):
        with pytest.raises(InvalidParameterError, match="^basis must be a Basis1D, got "):
            derivative_integral_table(basis, [1])


def test_forms_constructor_refuses_a_matrix_count_other_than_l():
    domain = Domain.interval(1.0)
    for l, count in ((3, 2), (2, 0), (2, 3)):
        with pytest.raises(InvalidParameterError, match=f"l={l} need {l} matrices, got {count}"):
            OperatorForms(domain, l, 2, [np.eye(2)] * count)
    forms = OperatorForms(domain, 2, 2, [np.eye(2), 2.0 * np.eye(2)])
    assert np.array_equal(forms._a_matrix, 2.0 * np.eye(2))
    assert forms.matrices[0] is forms.b_matrix


def _entry(table, j, a, b):
    blocks, den = table
    return Fraction(int(blocks[j][a, b]), den)


def test_monomial_integral_example():
    # the l=2, a=b=0 entry is the plain beta integral of x^4 (1-x)^4
    basis = build_basis_1d(2, 1)
    table = derivative_integral_table(basis, [0, 1, 2])
    assert _entry(table, 0, 0, 0) == oracles.beta_integral(4, 4) == Fraction(1, 630)
    assert _entry(table, 1, 0, 0) == Fraction(2, 105)
    assert _entry(table, 2, 0, 0) == Fraction(4, 5)


def test_table_matches_sympy_integrals():
    basis = build_basis_1d(2, 3)
    table = derivative_integral_table(basis, range(3))
    assert sorted(table[0]) == [0, 1, 2]
    for j, a, b in itertools.product(range(3), repeat=3):
        exact = oracles.basis_integral_sympy(2, a, b, j, j)
        assert _entry(table, j, a, b) == Fraction(int(exact.p), int(exact.q))


def test_table_higher_order_and_symmetry():
    basis = build_basis_1d(3, 3)
    table = derivative_integral_table(basis, range(4))
    for j, a, b in itertools.product(range(4), range(3), range(3)):
        assert _entry(table, j, a, b) == _entry(table, j, b, a)
        if (a + b) % 2 == 1:
            assert _entry(table, j, a, b) == 0
    exact = oracles.basis_integral_sympy(3, 1, 1, 3, 3)
    assert _entry(table, 3, 1, 1) == Fraction(int(exact.p), int(exact.q))


def test_table_order_cap():
    basis = build_basis_1d(2, 2)
    for order in (3, -1):
        with pytest.raises(InvalidParameterError):
            derivative_integral_table(basis, [0, order])


def test_table_validates_every_order_before_any_block(monkeypatch):
    def built(*args):
        raise AssertionError("a block was built before every order was checked")

    monkeypatch.setattr(galerkin, "perm", built)
    basis = build_basis_1d(2, 4)
    for orders, message in (([0, 1, 3], "exceeds the boundary order"), ([1, 2, 0.5], "integer")):
        with pytest.raises(InvalidParameterError, match=message):
            derivative_integral_table(basis, orders)


@lru_cache(maxsize=None)
def _hilbert_reference(l, m):
    return oracles.hilbert_table(l, m, range(l + 1))


def _check_table(l, m, orders):
    blocks, den = derivative_integral_table(build_basis_1d(l, m), orders)
    reference, reference_den = _hilbert_reference(l, m)
    assert den == reference_den, (l, m)
    assert sorted(blocks) == list(orders), (l, m)
    for j in orders:
        assert np.array_equal(blocks[j], reference[j]), (l, m, j)


def test_table_cache_serves_every_leading_block(monkeypatch):
    # Cold builds of every block against the x-coefficient Hilbert product
    # that the parity split replaced, block 0 at large m included (no
    # interval form reads it), then the same tables with m ascending (every
    # call grows the kept blocks), descending (every call after the first is
    # served from the m = 24 blocks) and shuffled, interval orders 1..l and
    # rectangle orders 0..l taking turns at going first.
    monkeypatch.setattr(galerkin, "_TABLES", {})
    sizes = list(range(1, DEGREE_CAP + 1))
    shuffled = sizes[:]
    random.Random(17).shuffle(shuffled)
    for l in range(2, 7):
        interval, rectangle = range(1, l + 1), range(l + 1)
        for m in sizes:
            galerkin._TABLES.clear()
            _check_table(l, m, rectangle)
        for sequence in (sizes, sizes[::-1], shuffled):
            galerkin._TABLES.clear()
            for i, m in enumerate(sequence):
                for orders in (interval, rectangle)[:: 1 - 2 * (i % 2)]:
                    _check_table(l, m, orders)
                    assert galerkin._TABLES[l, orders[-1]][0] == max(sequence[: i + 1])
            # one kept block per order, at the largest m asked for
            assert sorted(galerkin._TABLES) == [(l, j) for j in range(l + 1)]
            assert {size for size, _, _ in galerkin._TABLES.values()} == {DEGREE_CAP}


def test_table_blocks_are_fresh_on_every_call(monkeypatch):
    monkeypatch.setattr(galerkin, "_TABLES", {})
    for m in (6, 6, 4):  # a build, a same-size hit, a leading sub-block
        blocks, _ = derivative_integral_table(build_basis_1d(3, m), range(4))
        for block in blocks.values():
            block[...] = 0
        _check_table(3, m, range(4))
    _check_table(3, 6, range(4))


def test_solve_builds_no_basis_polynomials(monkeypatch):
    def multiplied(*args):
        raise AssertionError("a basis polynomial was built")

    monkeypatch.setattr(Polynomial, "__mul__", multiplied)
    solve_buckling(Domain.rectangle(1.0, 1.3), 3, 5, 2)
    solve_buckling(Domain.interval(0.7), 4, 6, 2)


def _record_builds(monkeypatch, sizes=None):
    # The orders k of every form build and the orders j of every table call,
    # and the basis size m of every form build in sizes, when it is given.
    built, tables = [], []
    assemble, table = galerkin._assemble, galerkin.derivative_integral_table

    def recorded_assemble(domain, basis, orders):
        built.append(sorted(orders))
        if sizes is not None:
            sizes.append(basis.m)
        return assemble(domain, basis, orders)

    def recorded_table(basis, orders):
        tables.append(sorted(orders))
        return table(basis, orders)

    monkeypatch.setattr(galerkin, "_assemble", recorded_assemble)
    monkeypatch.setattr(galerkin, "derivative_integral_table", recorded_table)
    return built, tables


def test_a_solve_builds_only_the_pencil(monkeypatch):
    # A solve reads only (A_l, A_1); the other forms wait for a first read
    # of matrices, which builds them once, together, and keeps them.
    built, tables = _record_builds(monkeypatch)
    spectrum = solve_buckling(Domain.interval(1.1), 6, 16, 4)
    assert (built, tables) == ([[1, 6]], [[1, 6]])
    first = spectrum.forms.matrices
    assert (built, tables) == ([[1, 6], [2, 3, 4, 5]], [[1, 6], [2, 3, 4, 5]])
    assert all(a is b for a, b in zip(first, spectrum.forms.matrices))
    assert len(built) == 2
    built.clear()
    tables.clear()
    solve_buckling(Domain.rectangle(1.3, 0.7), 4, 6, 3)
    assert (built, tables) == ([[1, 4]], [[0, 1, 2, 3, 4]])
    # a ladder's coarser rungs slice the finest rung's pencil and build nothing
    built.clear()
    tables.clear()
    convergence_study(Domain.rectangle(1.3, 0.7), 3, (2, 4, 6), 2)
    assert (built, tables) == ([[1, 3]], [[0, 1, 2, 3]])


def test_every_read_of_the_forms_gives_the_same_bytes(monkeypatch, tmp_path):
    # Forms built at assembly, all at once on a first read of matrices or one
    # order at a time in ascending or descending k, sliced from a larger
    # basis, or exported and loaded back are the same bytes as a fresh
    # assembly's.
    monkeypatch.setattr(galerkin, "_TABLES", {})
    path = tmp_path / "forms.bin"
    cases = [(Domain.interval(1.1), 6, 16), (Domain.rectangle(1.3, 0.7), 4, 6)]
    cases += [(Domain.interval(0.9), 6, 24), (Domain((1.2, 0.8, 1.1)), 3, 4)]
    for domain, l, m in cases:
        expected = [mat.tobytes() for mat in assemble_forms(domain, l, m).matrices]
        leading = [mat.tobytes() for mat in assemble_forms(domain, l, m - 2).matrices]
        for orders in (range(1, l + 1), range(l, 0, -1), ()):
            forms = solve_buckling(domain, l, m, 2).forms
            lead = _leading_forms(solve_buckling(domain, l, m, 2).forms, m - 2)
            export_forms(solve_buckling(domain, l, m, 2).forms, path)
            back = load_forms(path)
            for read, full in ((forms, expected), (lead, leading), (back, expected)):
                galerkin._TABLES.clear()  # each deferred form builds its own blocks
                got = [read._read((k,))[0].tobytes() for k in orders]
                assert got == [full[k - 1] for k in orders], (domain, l, orders)
                assert [mat.tobytes() for mat in read.matrices] == full


def test_a_coarse_rung_assembles_its_other_forms_at_its_own_size(monkeypatch):
    # a coarse rung holds only the sliced pencil; its A_2 is assembled at the
    # rung's m, alone, and never at the finest m
    cases = ((Domain.interval(0.9), 6, 24, 22), (Domain((1.2, 0.8, 1.1)), 3, 4, 2))
    leads = [_leading_forms(assemble_forms(domain, l, m), small) for domain, l, m, small in cases]
    sizes = []
    built, _ = _record_builds(monkeypatch, sizes)
    second = [lead._read((2,))[0].tobytes() for lead in leads]
    assert (built, sizes) == ([[2], [2]], [22, 2])
    for (domain, l, _, small), got in zip(cases, second):
        assert got == assemble_forms(domain, l, small).matrices[1].tobytes()


def test_assemble_interval_example():
    forms = assemble_forms(Domain.interval(1.0), 2, 1)
    assert forms.n_basis == 1
    assert forms.matrices[1][0, 0] == float(Fraction(4, 5))
    assert forms.b_matrix[0, 0] == float(Fraction(2, 105))


def test_assemble_edge_scaling_exact():
    # the Gram block of order j scales each 1D factor by edge**(1 - 2j)
    unit = assemble_forms(Domain.interval(1.0), 2, 2)
    wide = assemble_forms(Domain.interval(2.0), 2, 2)
    for k, power in ((0, -1), (1, -3)):
        expected = unit.matrices[k] * 2.0**power
        assert np.array_equal(wide.matrices[k], expected)


def test_assemble_square_matches_sympy_tensor_route():
    # rebuild the 2D gradient and biharmonic forms from 1D sympy integrals
    l, m = 2, 2
    forms = assemble_forms(Domain.rectangle(1.0, 1.0), l, m)

    def e(a, b, r, s):
        value = oracles.basis_integral_sympy(l, a, b, r, s)
        return Fraction(int(value.p), int(value.q))

    for a in range(m):
        for c in range(m):
            for a2 in range(m):
                for c2 in range(m):
                    row, col = a * m + c, a2 * m + c2
                    grad = e(a, a2, 1, 1) * e(c, c2, 0, 0) + e(a, a2, 0, 0) * e(c, c2, 1, 1)
                    lap = (
                        e(a, a2, 2, 2) * e(c, c2, 0, 0)
                        + e(a, a2, 2, 0) * e(c, c2, 0, 2)
                        + e(a, a2, 0, 2) * e(c, c2, 2, 0)
                        + e(a, a2, 0, 0) * e(c, c2, 2, 2)
                    )
                    assert forms.b_matrix[row, col] == float(grad)
                    assert forms.matrices[1][row, col] == float(lap)


def test_assemble_third_order_square_odd_form():
    # odd order k=3 uses the gradient of the Laplacian; every entry is the
    # sympy tensor expansion rounded once
    l, m = 3, 2
    forms = assemble_forms(Domain.rectangle(1.0, 1.0), l, m)

    def e(a, b, r, s):
        value = oracles.basis_integral_sympy(l, a, b, r, s)
        return Fraction(int(value.p), int(value.q))

    for a, c, a2, c2 in itertools.product(range(m), repeat=4):
        # grad Lap(u) . grad Lap(v) with u = b_a(x) b_c(y), v = b_a2(x) b_c2(y)
        expected = Fraction(0)
        for dx1, dy1 in ((3, 0), (1, 2)):
            for dx2, dy2 in ((3, 0), (1, 2)):
                expected += e(a, a2, dx1, dx2) * e(c, c2, dy1, dy2)
        for dx1, dy1 in ((2, 1), (0, 3)):
            for dx2, dy2 in ((2, 1), (0, 3)):
                expected += e(a, a2, dx1, dx2) * e(c, c2, dy1, dy2)
        assert forms.matrices[2][a * m + c, a2 * m + c2] == float(expected)


def test_assemble_symmetric_and_deterministic():
    forms_a = assemble_forms(Domain.rectangle(1.0, 2.0), 3, 3)
    forms_b = assemble_forms(Domain.rectangle(1.0, 2.0), 3, 3)
    assert len(forms_a.matrices) == 3
    for mat_a, mat_b in zip(forms_a.matrices, forms_b.matrices):
        assert np.array_equal(mat_a, mat_b)
        assert np.array_equal(mat_a, mat_a.T)


def test_assembly_matches_per_entry_fraction_reference():
    # bit-identical to the entry-by-entry Fraction route on unit and
    # non-dyadic edges, so the integer Hilbert/Kronecker path rounds the same
    # rationals once; the parity zeros and the mirrored lower half are
    # written apart from the computed entries, so signs and symmetry are
    # checked as well
    grid = [((e,), l, m) for e in (1.0, 0.85) for l in (2, 3, 4, 6) for m in (1, 7, 24)]
    rectangles = ((1.0, 1.0), (0.9, 1.3), (1.7, 0.6))
    grid += [(e, l, m) for e in rectangles for l in (2, 3, 4) for m in (1, 2, 5, 8)]
    # the equal-order identity needs k <= l; test it up to the highest orders
    grid += [(e, l, m) for e in rectangles for l in (5, 6) for m in (1, 2, 3)]
    boxes = ((1.0, 1.0, 1.0), (0.9, 1.3, 0.7))
    grid += [(e, l, m) for e in boxes for l in (2, 3, 4) for m in (1, 2, 3)]
    for edges, l, m in grid:
        forms = assemble_forms(Domain(edges), l, m)
        reference = oracles.reference_forms(edges, l, m)
        assert len(forms.matrices) == len(reference) == l
        for k, (ours, theirs) in enumerate(zip(forms.matrices, reference), start=1):
            assert np.array_equal(ours, theirs), (edges, l, m, k)
            assert np.array_equal(np.signbit(ours), np.signbit(theirs)), (edges, l, m, k)
            assert np.array_equal(ours, ours.T), (edges, l, m, k)


def test_smaller_basis_is_the_leading_block():
    # every entry is the same rational rounded once, whatever the basis size,
    # so _leading_forms of a larger basis gives a smaller basis's forms
    cases = [((0.85,), 3, 16), ((1.0, 1.0), 2, 7), ((0.9, 1.3), 3, 6), ((1.1, 0.8, 1.3), 3, 5)]
    cases += [(edges, l, 10) for edges in ((1.3,), (1.3, 0.7)) for l in range(2, 6)]
    for edges, l, top in cases:
        forms = {m: assemble_forms(Domain(edges), l, m) for m in range(1, top + 1)}
        for m, full in forms.items():
            for small in range(1, m):
                sub, lead = forms[small], _leading_forms(full, small)
                # the product function of per-axis indices i sits at mixed radix m
                shape = (m,) * len(edges)
                index = [
                    np.ravel_multi_index(i, shape)
                    for i in itertools.product(range(small), repeat=len(edges))
                ]
                assert (lead.domain, lead.l, lead.m) == (sub.domain, sub.l, sub.m)
                assert lead.n_basis == sub.n_basis == len(index)
                for ours, theirs, big in zip(lead.matrices, sub.matrices, full.matrices):
                    assert np.array_equal(theirs, big[np.ix_(index, index)]), (edges, l, m, small)
                    assert np.array_equal(ours, theirs), (edges, l, m, small)
                    assert np.array_equal(np.signbit(ours), np.signbit(theirs))


def test_assemble_validation():
    with pytest.raises(InvalidParameterError):
        assemble_forms(Domain.interval(1.0), 1, 2)
    # m**dim above DEGREE_CAP**2 = 576: a box stops at m = 8
    assert assemble_forms(Domain((1.0, 1.0, 1.0)), 2, 8).n_basis == 512
    with pytest.raises(InvalidParameterError, match="exceeds the supported cap 576"):
        assemble_forms(Domain((1.0, 1.0, 1.0)), 2, 9)
    with pytest.raises(InvalidParameterError, match="^domain must be a Domain instance$"):
        assemble_forms("x", 2, 3)


def test_assemble_overflow_is_a_numerical_error():
    # the order-k form scales with edge**(1 - 2k), beyond binary64 for these
    # edges from k = 2 on; assembly builds the pencil's A_1 and A_l, and the
    # first of them to overflow is named
    for domain, l, k in ((Domain.interval(1e-150), 2, 2), (Domain.rectangle(1e-120, 1.0), 3, 3)):
        with pytest.raises(NumericalError, match=f"order-{k} form overflows"):
            assemble_forms(domain, l, 3)


def test_export_round_trip(tmp_path):
    # the JSON text of each edge must read back as the same float, or the
    # loaded header would differ from the one export_forms writes
    for edges, l, m in (
        ((1.0, 2.0), 2, 3),
        ((1.0, 0.5, 2.0), 3, 3),
        ((0.1 + 0.2,), 2, 4),
        ((1e-05,), 3, 3),
        ((1.0, 2.0), 4, 2),
        ((1e-05, 1e22), 2, 3),
        ((0.1 + 0.2, 1.0, 1e-05), 3, 2),
        ((1.0, 0.5, 2.0), 4, 1),
    ):
        forms = assemble_forms(Domain(edges), l, m)
        path = tmp_path / "forms.bin"
        export_forms(forms, path)
        with open(path, "rb") as handle:
            header = json.loads(handle.readline().decode("ascii"))
        assert header["schema"] == 1
        assert header["n_basis"] == forms.n_basis == m ** len(edges)
        assert header["domain"] == list(edges)
        back = load_forms(path)
        assert back.l == forms.l and back.m == forms.m
        assert back.domain.edges == forms.domain.edges
        assert len(back.matrices) == l
        for mat_a, mat_b in zip(forms.matrices, back.matrices):
            assert mat_b.flags.writeable
            assert mat_a.tobytes() == mat_b.tobytes()


# Assembles, exports and loads forms in a fresh interpreter with every warning
# an error, and reports whether the loaded forms are bit for bit the assembled
# ones and which of the solver's modules were loaded.
ROUND_TRIP_PROBE = """
import json, sys
import numpy as np
from buckbounds.galerkin import Domain, assemble_forms, export_forms, load_forms

forms = assemble_forms(Domain(tuple(json.loads(sys.argv[1]))), int(sys.argv[2]), int(sys.argv[3]))
export_forms(forms, sys.argv[4])
back = load_forms(sys.argv[4])
same = all(np.array_equal(a, b) for a, b in zip(forms.matrices, back.matrices))
print(json.dumps({"n_basis": back.n_basis, "same": same,
                  "loaded": sorted({"buckbounds.eigen", "scipy"} & set(sys.modules))}))
"""


def test_unsolvable_pencil_still_assembles_and_round_trips(tmp_path):
    # On the unit square at l = 4, m = 24 the unscaled A_1 fails the solve's
    # pivot check; the exact forms exist all the same, and only the solve
    # refuses them.
    argv = [json.dumps([1.0, 1.0]), "4", "24", str(tmp_path / "forms.bin")]
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", ROUND_TRIP_PROBE, *argv],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"n_basis": 576, "same": True, "loaded": []}
    failure = r"^pivot -\S+ at index 569 is not above"
    with pytest.warns(UserWarning, match="m=24"):
        with pytest.raises(NotPositiveDefiniteError, match=failure):
            solve_buckling(Domain((1.0, 1.0)), 4, 24, 1)


def test_forms_repr_names_the_request():
    forms = assemble_forms(Domain.interval(1.0), 2, 2)
    assert repr(forms) == "OperatorForms(domain=Domain(edges=(1.0,)), l=2, m=2)"


def test_load_refuses_a_short_read(tmp_path, monkeypatch):
    # a file that shrinks between the size check and the read fills fewer
    # bytes than the matrices need
    path, _, _ = _exported(tmp_path)

    class Short(io.BufferedReader):
        def readinto(self, buffer):
            return super().readinto(memoryview(buffer).cast("B")[:-8])

    monkeypatch.setattr(galerkin, "open", lambda *a: Short(io.FileIO(*a)), raising=False)
    with pytest.raises(InvalidParameterError, match="changed while it was read$"):
        load_forms(path)


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "forms.bin"
    path.write_bytes(b'{"schema": 2}\n')
    with pytest.raises(InvalidParameterError):
        load_forms(path)


def test_export_and_load_refuse_what_is_not_a_path(tmp_path):
    # open() takes an integer as a file descriptor and closes it on exit
    forms = assemble_forms(Domain.interval(1.0), 2, 2)
    descriptor = os.open(tmp_path / "held", os.O_WRONLY | os.O_CREAT)
    try:
        for path in (descriptor, None, 1.5):
            with pytest.raises(InvalidParameterError, match="^path must be a str, bytes or"):
                export_forms(forms, path)
            with pytest.raises(InvalidParameterError, match="^path must be a str, bytes or"):
                load_forms(path)
        os.fstat(descriptor)
    finally:
        os.close(descriptor)


def test_parity_classes_partition_the_basis_into_uncoupled_blocks():
    for edges, m in (((1.3,), 5), ((1.0, 0.7), 4), ((1.2, 0.9, 0.8), 3)):
        forms = assemble_forms(Domain(edges), 3, m)
        classes = _parity_classes(m, len(edges))
        assert len(classes) == 2 ** len(edges)
        assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(forms.n_basis))
        for index in classes:
            assert np.all(np.diff(index) > 0)
            outside = np.setdiff1d(np.arange(forms.n_basis), index)
            for mat in forms.matrices:
                assert not np.any(mat[np.ix_(index, outside)])


def _exported(tmp_path, edges=(1.0, 2.0), l=3, m=2):
    path = tmp_path / "forms.bin"
    export_forms(assemble_forms(Domain(edges), l, m), path)
    header, _, data = path.read_bytes().partition(b"\n")
    return path, json.loads(header), data


def _rewrite(path, header, data):
    path.write_bytes(json.dumps(header, sort_keys=True).encode("ascii") + b"\n" + data)


def test_load_rejects_matrix_count_other_than_l(tmp_path):
    path, header, data = _exported(tmp_path)
    header["l"] = 7
    _rewrite(path, header, data)
    with pytest.raises(InvalidParameterError):
        load_forms(path)


def test_load_rejects_n_basis_other_than_m_to_the_dim(tmp_path):
    path, header, data = _exported(tmp_path, edges=(1.0,), l=2, m=4)
    header["m"] = 5
    _rewrite(path, header, data)
    with pytest.raises(InvalidParameterError):
        load_forms(path)


@pytest.mark.parametrize(
    "edges, m, n",
    [((1.0,), 100000, 100000), ((1.0,), 25, 25), ((1.0, 1.0, 1.0), 24, 24**3)],
)
def test_load_refuses_sizes_above_the_caps_before_reading(tmp_path, edges, m, n):
    # a header may claim any size; reading 8 n**2 bytes per matrix on its
    # word would ask for 80 GB at n = 100000
    path, header, data = _exported(tmp_path, edges=edges, l=2, m=2)
    header.update(domain=list(edges), m=m, n_basis=n)
    _rewrite(path, header, data)
    with pytest.raises(InvalidParameterError, match="exceeds the supported cap"):
        load_forms(path)


def test_load_rejects_trailing_bytes(tmp_path):
    for tail in (b"junk", b"\0"):
        path, header, data = _exported(tmp_path)
        _rewrite(path, header, data + tail)
        with pytest.raises(InvalidParameterError):
            load_forms(path)


def test_load_rejects_a_truncated_body(tmp_path):
    path, header, data = _exported(tmp_path)
    _rewrite(path, header, data[:-8])
    with pytest.raises(InvalidParameterError, match="bytes after its header"):
        load_forms(path)


def test_load_checks_the_body_length_before_allocating(tmp_path):
    # l has no cap: a canonical header may claim 10**7 matrices of 576 x 576,
    # 26 TB, over a body of a few bytes, and the file's length refuses it
    # before anything near one matrix is read or allocated
    path, header, _ = _exported(tmp_path, edges=(1.0, 1.0), l=2, m=2)
    header.update(l=10**7, matrices=10**7, m=24, n_basis=576)
    _rewrite(path, header, b"abc")
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="bytes after its header"):
            load_forms(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_load_rejects_asymmetric_matrix(tmp_path):
    path, header, data = _exported(tmp_path)
    values = np.frombuffer(data, dtype="<f8").copy()
    values[1] += 1.0  # entry (0, 1) of the first matrix; (1, 0) keeps its value
    # a body of inf entries is symmetric, but not finite
    for body in (values.tobytes(), np.full(values.size, np.inf, dtype="<f8").tobytes()):
        _rewrite(path, header, body)
        with pytest.raises(InvalidParameterError):
            load_forms(path)


@pytest.mark.parametrize(
    "line",
    [
        pytest.param(b"{schema: 1}", id="not-json"),
        pytest.param('{"schema": 1, "note": "\u00e9"}'.encode("utf-8"), id="not-ascii"),
        pytest.param(b"[1]", id="not-an-object"),
    ],
)
def test_load_rejects_header_that_is_not_an_ascii_json_object(tmp_path, line):
    path, _, data = _exported(tmp_path)
    path.write_bytes(line + b"\n" + data)
    with pytest.raises(InvalidParameterError):
        load_forms(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("l", None),  # None drops the key
        ("domain", 1.0),
        ("domain", ["1.0", 2.0]),
        ("dtype", ">f8"),
        ("order", "F"),
        ("n_basis", 4.0),
        # headers that match the data but that export_forms never writes
        ("schema", True),
        ("schema", 1.0),
        ("matrices", 3.0),
        ("note", "extra"),
        ("domain", [1, 2]),
    ],
)
def test_load_rejects_malformed_header_fields(tmp_path, field, value):
    path, header, data = _exported(tmp_path)
    if value is None:
        del header[field]
    else:
        header[field] = value
    _rewrite(path, header, data)
    with pytest.raises(InvalidParameterError):
        load_forms(path)
