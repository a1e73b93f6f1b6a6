import math
import random
from fractions import Fraction

import pytest

from buckbounds import (
    ACoefficients,
    DomainViolationError,
    InvalidParameterError,
    NumericalError,
    Polynomial,
    extract_a_coefficients,
    Spectrum,
    eval_thm12,
    fg_polynomials,
    h_term,
    next_bound_sphere,
    phi_polynomial,
    polyrec,
    s_term,
)

import oracles


def test_phi_spec_instances():
    assert str(phi_polynomial(2, 4)) == "t^2 - 9 t - 2"
    assert str(phi_polynomial(3, 2)) == "t^3 - 17 t^2 + 16 t"
    assert phi_polynomial(1, 7).coefficients == (-1, 1)


def test_phi_matches_symbolic_expansion():
    for n in range(2, 7):
        for q in range(1, 9):
            expected = [int(c) for c in oracles.phi_symbolic(q, n)]
            assert list(phi_polynomial(q, n).coefficients) == expected


def test_phi_general_n_cubic():
    # symbolic coefficients of the q=3 member, checked at several n
    for n in range(2, 12):
        poly = phi_polynomial(3, n)
        assert poly.coefficients == (
            -((n - 2) ** 2),
            n * n - 2 * n + 16,
            -(2 * n + 13),
            1,
        )


def test_phi_monic_with_exact_constant_term():
    for n in range(2, 11):
        for q in range(1, 13):
            poly = phi_polynomial(q, n)
            assert poly.degree == q
            assert poly.coefficients[-1] == 1
            assert poly.coefficients[0] == -((n - 2) ** (q - 1))


def test_fg_spec_instances():
    f, g = fg_polynomials(1, 3)
    assert str(f) == "t - 5"
    assert str(g) == "3 t + 1"
    f, g = fg_polynomials(2, 2)
    assert str(f) == "t^2 - 12 t + 8"
    assert str(g) == "5 t^2 - 8 t"
    f, g = fg_polynomials(0, 9)
    assert f.coefficients == (1,) and g.coefficients == (1,)


def test_fg_matches_symbolic_expansion():
    for n in range(2, 6):
        for q in range(0, 8):
            f, g = fg_polynomials(q, n)
            ef, eg = oracles.fg_symbolic(q, n)
            assert list(f.coefficients) == [int(c) for c in ef]
            assert list(g.coefficients) == [int(c) for c in eg]


def test_phi_identity_with_fg():
    t = Polynomial((0, 1))
    for n in range(2, 9):
        for q in range(1, 11):
            f, g = fg_polynomials(q - 1, n)
            assert phi_polynomial(q, n) == t * f - g


def test_a_coefficients_spec_instances():
    got = extract_a_coefficients(3, 4)
    assert got.a == (9,) and got.a_plus == (9,)
    got = extract_a_coefficients(4, 2)
    assert got.a == (16, 17) and got.a_plus == (16, 17)
    assert extract_a_coefficients(2, 5).a == ()


def test_a_coefficients_match_symbolic_route():
    for l in range(3, 8):
        for n in range(2, 8):
            got = extract_a_coefficients(l, n)
            expected = tuple(oracles.sphere_a_coefficients(l, n))
            assert got.a == expected
            assert got.a_plus == tuple(max(v, 0) for v in expected)
            assert isinstance(got, ACoefficients)


def test_h_term_values():
    # l=3, n=4: -(n-2) + a_1 sqrt(lam) with a_1 = 9
    assert h_term(3, 4, 8.0) == pytest.approx(-2.0 + 9.0 * math.sqrt(8.0), rel=1e-15)
    # l=4, n=2: a_1 lam^(1/3) + a_2 lam^(2/3) with a = (16, 17)
    expected = 16.0 * 16.0 ** (1 / 3) + 17.0 * 16.0 ** (2 / 3)
    assert h_term(4, 2, 16.0) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(148.26077, rel=1e-6)


def test_h_term_l2_convention():
    # l=2 leaves only the empty sum plus (n-2)^0, with 0^0 = 1 at n = 2
    assert h_term(2, 2, 3.7) == 1.0
    assert h_term(2, 6, 0.1) == 1.0


def test_h_term_nondecreasing_in_lambda():
    rng = random.Random(11)
    for _ in range(40):
        l = rng.randint(2, 7)
        n = rng.randint(2, 9)
        grid = sorted(rng.uniform(0.01, 500.0) for _ in range(25))
        values = [h_term(l, n, lam) for lam in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_h_term_past_the_float_range_is_a_numerical_error():
    # an integer past the float range met a float and leaked OverflowError,
    # and so did fsum on a finite sum past it
    with pytest.raises(NumericalError, match="float range"):
        h_term(19, 2**63 - 1, 1.0)
    # two admissible eigenvalues, lam**(1/(l-1)) > n - 2: a 1,040-bit a_j^+,
    # then an fsum overflow; s_term inherits the error
    for l, n, lam in ((301, 10, 1e300), (250, 3, 1e250)):
        with pytest.raises(NumericalError, match="float range"):
            h_term(l, n, lam)
        with pytest.raises(NumericalError, match="float range"):
            s_term(l, n, lam)


def test_s_term_values():
    assert s_term(2, 3, 2.0) == 1.0
    assert s_term(2, 2, 5.0) == 5.0
    assert s_term(3, 3, 9.0) == 27.5


def test_s_term_nondecreasing_on_domain():
    rng = random.Random(12)
    for _ in range(40):
        l = rng.randint(2, 6)
        n = rng.randint(2, 8)
        floor = (n - 2) ** (l - 1)
        grid = sorted(floor + rng.uniform(1e-3, 300.0) for _ in range(25))
        values = [s_term(l, n, lam) for lam in grid]
        assert all(b >= a - 1e-12 * abs(a) for a, b in zip(values, values[1:]))


def test_s_term_domain_violation():
    with pytest.raises(DomainViolationError) as err:
        s_term(3, 3, 1.0)
    assert "lam**(1/(l-1)) > n - 2" in str(err.value)
    # one admissibility check serves s_term and the spherical functions
    with pytest.raises(DomainViolationError) as sphere:
        eval_thm12(Spectrum(values=(1.0,), n=3, l=3), 1, 2.0, (1.0,))
    assert str(sphere.value) == str(err.value)
    with pytest.raises(DomainViolationError):
        s_term(2, 3, 0.9)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        phi_polynomial(0, 4)
    with pytest.raises(InvalidParameterError):
        phi_polynomial(2, 1)
    with pytest.raises(InvalidParameterError):
        fg_polynomials(-1, 3)
    with pytest.raises(InvalidParameterError):
        extract_a_coefficients(1, 3)
    with pytest.raises(InvalidParameterError):
        h_term(3, 4, -1.0)
    with pytest.raises(InvalidParameterError):
        phi_polynomial(2.5, 4)


def test_order_and_dimension_are_checked_on_every_call():
    # the coefficient table is cached by value, and 2.0 == 2 hit the entry
    # of l = 2, so h_term(2.0, 2, 1.0) passed once h_term(2, 2, 1.0) had run
    assert h_term(2, 2, 1.0) == 1.0
    assert extract_a_coefficients(3, 4).a == (9,)
    for call, message in (
        (lambda: h_term(2.0, 2, 1.0), "l must be an integer, got 2.0"),
        (lambda: h_term(2, 2.0, 1.0), "n must be an integer, got 2.0"),
        (lambda: extract_a_coefficients(3.0, 4), "l must be an integer, got 3.0"),
        (lambda: extract_a_coefficients(3, 4.0), "n must be an integer, got 4.0"),
    ):
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            call()


def test_index_cap():
    cap = polyrec.INDEX_CAP
    assert phi_polynomial(cap, 3).degree == cap
    for call in (lambda: phi_polynomial(cap + 1, 3), lambda: fg_polynomials(cap + 1, 3)):
        with pytest.raises(
            InvalidParameterError, match=f"^q={cap + 1} exceeds the supported cap {cap}$"
        ):
            call()
    # the terms built from phi_{l-1} cap l itself, one above the index cap
    for call in (
        lambda: extract_a_coefficients(cap + 2, 3),
        lambda: s_term(cap + 2, 3, 10.0),
        lambda: h_term(cap + 2, 3, 10.0),
        # the spherical functions check it before they call the s_term kernel
        lambda: next_bound_sphere(Spectrum(values=(10.0,), n=3, l=cap + 2), 1),
    ):
        with pytest.raises(
            InvalidParameterError, match=f"^l={cap + 2} exceeds the supported cap {cap + 1}$"
        ):
            call()


def test_polynomial_arithmetic():
    p = Polynomial((1, 2, 3))
    q = Polynomial((0, 1))
    assert (p + q).coefficients == (1, 3, 3)
    assert (p - q).coefficients == (1, 1, 3)
    assert (2 * q).coefficients == (0, 2)
    with pytest.raises(InvalidParameterError):
        p - p
    assert (p * q).coefficients == (0, 1, 2, 3)
    # an operand that is not a Polynomial (nor an int factor) is refused
    with pytest.raises(TypeError):
        Polynomial((1,)) + 1
    with pytest.raises(TypeError):
        Polynomial((1,)) * "x"
    assert p(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4)
    assert p.derivative().coefficients == (2, 6)
    assert p.derivative(2).coefficients == (6,)
    with pytest.raises(InvalidParameterError):
        Polynomial(())
    with pytest.raises(InvalidParameterError):
        Polynomial((0, 0))


def test_polynomial_evaluation_matches_expansion():
    rng = random.Random(13)
    for _ in range(30):
        q = rng.randint(1, 9)
        n = rng.randint(2, 9)
        t = rng.randint(-20, 20)
        poly = phi_polynomial(q, n)
        direct = sum(c * t**i for i, c in enumerate(poly.coefficients))
        assert poly(t) == direct
