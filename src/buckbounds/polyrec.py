"""Integer polynomial recursions and the scalar terms built from their coefficients.

Three polynomial families in the spectral parameter t are generated by one
shared three-term recursion

    P_q = (2t - 2) P_{q-1} - (t**2 + 2t - n(n-2)) P_{q-2},

differing only in their seeds.  All coefficients stay exact integers; Python
integers make overflow impossible.  The interior coefficients of the main
family feed the scalar terms ``h_term`` and ``s_term`` used by the gap
inequalities.  The argument checks used here live in ``errors``; each public
function makes them once, at its entry, and the private kernels ``_phi``,
``_a_coefficients``, ``_h_term`` and ``_s_term`` check nothing again, so the
spherical functions of ``bounds`` call ``_s_term`` once per eigenvalue.

A member's cost grows about cubically in its index q, and faster with n, so
q is capped at ``INDEX_CAP``: at n = 2**63 - 1, the largest n accepted,
``fg_polynomials`` at the cap took 0.8 s and ``phi_polynomial`` 0.34 s on a
2-vCPU host.  ``extract_a_coefficients``, ``h_term`` and ``s_term`` build
phi_{l-1}, so each checks that l is at most one above the cap.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    DomainViolationError,
    InvalidParameterError,
    _finite_sum,
    _Record,
    _require_int,
    _require_positive_floats,
    _shown,
)


class Polynomial(_Record):
    """Dense univariate polynomial with exact integer coefficients.

    Coefficients are stored ascending by power.  The zero polynomial is
    disallowed; the leading coefficient is always nonzero.
    """

    def __init__(self, coefficients):
        coefficients = tuple(coefficients)
        for c in coefficients:
            if isinstance(c, bool) or not isinstance(c, int):
                raise InvalidParameterError(f"coefficients must be integers, got {_shown(c)}")
        while len(coefficients) > 1 and coefficients[-1] == 0:
            coefficients = coefficients[:-1]
        if coefficients == () or coefficients == (0,):
            raise InvalidParameterError("the zero polynomial is not representable here")
        self._store(locals())

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        size = max(len(a), len(b))
        out = [0] * size
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += sign * c
        return Polynomial(tuple(out))

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return Polynomial(tuple(other * c for c in self.coefficients))
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def derivative(self, order=1):
        _require_int(order, "order", 0)
        coeffs = self.coefficients
        for _ in range(order):
            coeffs = tuple(p * coeffs[p] for p in range(1, len(coeffs)))
        return Polynomial(coeffs)

    def __call__(self, t):
        result = 0
        for c in reversed(self.coefficients):
            result = result * t + c
        return result

    def __str__(self):
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coefficients[power]
            if c == 0:
                continue
            if power == 0:
                body = str(abs(c))
            else:
                var = "t" if power == 1 else f"t^{power}"
                body = var if abs(c) == 1 else f"{abs(c)} {var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


_ONE = Polynomial((1,))

INDEX_CAP = 300


def _require_index(q, minimum):
    _require_int(q, "q", minimum)
    if q > INDEX_CAP:
        raise InvalidParameterError(f"q={q} exceeds the supported cap {INDEX_CAP}")


def _advance(n, prev2, prev, steps):
    # Run the shared recursion `steps` times from two consecutive members
    # and return the last member reached.
    left = Polynomial((-2, 2))  # 2t - 2
    right = Polynomial((-n * (n - 2), 2, 1))  # t**2 + 2t - n(n-2)
    for _ in range(steps):
        prev2, prev = prev, left * prev - right * prev2
    return prev


def phi_polynomial(q, n):
    """Main family member of index q at dimension n, exact integers.

    Seeds are t - 1 and t**2 - (n+5) t - (n-2); the shared recursion extends
    the family for q >= 3.  The result is monic of degree q with constant
    term -(n-2)**(q-1).
    """
    _require_index(q, 1)
    _require_int(n, "n", 2)
    return _phi(q, n)


def _phi(q, n):
    # phi_polynomial of checked arguments
    first = Polynomial((-1, 1))
    if q == 1:
        return first
    return _advance(n, first, Polynomial((-(n - 2), -(n + 5), 1)), q - 2)


def fg_polynomials(q, n):
    """Auxiliary pair (F_q, G_q) sharing the recursion of ``phi_polynomial``.

    Seeds are F_0 = G_0 = 1, F_1 = t - (n+2), G_1 = 3t + n - 2.  They satisfy
    the splitting identity phi_{q} = t*F_{q-1} - G_{q-1}.
    """
    _require_index(q, 0)
    _require_int(n, "n", 2)
    if q == 0:
        return _ONE, _ONE
    seeds = Polynomial((-(n + 2), 1)), Polynomial((n - 2, 3))
    return tuple(_advance(n, _ONE, seed, q - 1) for seed in seeds)


class ACoefficients(_Record):
    """Interior coefficients a_1..a_{l-2} of the degree-(l-1) family member.

    ``a_plus`` holds the clipped values max(a_j, 0) that enter the scalar
    terms.  Empty tuples at l = 2.
    """

    def __init__(self, l, n, a, a_plus):
        self._store(locals())


def extract_a_coefficients(l, n):
    """Read the alternating-sign interior coefficients out of phi_{l-1}.

    The member of degree l-1 has the shape

        t**(l-1) - a_{l-2} t**(l-2) + ... + (-1)**(l-2) a_1 t - (n-2)**(l-2),

    so a_j = (-1)**(l-1-j) * coefficient(t**j).  The recursion proves the
    shape: each step keeps the leading coefficient at 2 - 1 = 1 and sends the
    constant term c_q to -2 c_{q-1} + n(n-2) c_{q-2} = -(n-2)**(q-1), and
    ``test_phi_monic_with_exact_constant_term`` pins both.
    """
    _require_int(l, "l", 2)
    _require_int(n, "n", 2)
    _require_index(l - 1, 1)
    return _a_coefficients(l, n)


@lru_cache(maxsize=None)
def _a_coefficients(l, n):
    # extract_a_coefficients of checked arguments, built once per (l, n)
    coeffs = _phi(l - 1, n).coefficients
    a = tuple((-1) ** (l - 1 - j) * coeffs[j] for j in range(1, l - 1))
    a_plus = tuple(max(v, 0) for v in a)
    return ACoefficients(l=l, n=n, a=a, a_plus=a_plus)


def h_term(l, n, lam):
    """Scalar term (-1)**l (n-2)**(l-2) + sum_j a_j^+ lam**(j/(l-1)).

    Nondecreasing in lam since every a_j^+ is nonnegative.  The empty sum at
    l = 2 leaves only the sign term, with the convention 0**0 = 1 at n = 2.
    A sign term, a coefficient or a sum past the float range raises
    ``NumericalError``.
    """
    (lam,) = _require_positive_floats((lam,), "lam")
    _require_int(l, "l", 2)
    _require_int(n, "n", 2)
    _require_index(l - 1, 1)
    return _h_term(l, n, lam)


def _h_term(l, n, lam):
    # h_term of checked arguments
    coeffs = _a_coefficients(l, n)
    # the sign term is added as a float, as int + float converts it
    return _finite_sum(
        lambda: f"h_term at l={l}, n={n}, lam={lam} leaves the float range",
        ((-1) ** l * (n - 2) ** (l - 2),),
        (ap * lam ** (j / (l - 1)) for j, ap in enumerate(coeffs.a_plus, start=1)),
    )


def s_term(l, n, lam):
    """Scalar term lam*(1 - 1/(lam**(1/(l-1)) - (n-2))) + h_term(l, n, lam).

    Requires lam**(1/(l-1)) > n - 2; otherwise the reciprocal is undefined
    and a domain violation is raised.  A term past the float range, as the
    reciprocal of a subnormal root gap is, raises ``NumericalError``.
    """
    (lam,) = _require_positive_floats((lam,), "lam")
    _require_int(l, "l", 2)
    _require_int(n, "n", 2)
    root = lam ** (1.0 / (l - 1))
    if root - (n - 2) <= 0.0:
        raise DomainViolationError(
            f"s_term requires lam**(1/(l-1)) > n - 2; got lam={lam} with "
            f"lam**(1/(l-1))={root} and n-2={n - 2}"
        )
    _require_index(l - 1, 1)
    return _s_term(l, n, lam)


def _s_term(l, n, lam):
    # s_term of checked arguments with lam**(1/(l-1)) > n - 2
    gap = lam ** (1.0 / (l - 1)) - (n - 2)
    return _finite_sum(
        lambda: f"s_term at l={l}, n={n}, lam={lam} leaves the float range",
        (lam * (1.0 - 1.0 / gap),),
        (_h_term(l, n, lam),),
    )
