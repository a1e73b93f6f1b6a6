"""Clamped polynomial bases and exact assembly of polyharmonic form matrices.

The 1D basis on [0, 1] is b_a(x) = x**l (1-x)**l * L_a(2x - 1) with L_a the
Legendre polynomial of degree a, so b_a and its first l-1 derivatives vanish
at both endpoints.  Shifted Legendre polynomials have integer coefficients,
so every 1D integral block is an integer Hilbert product C_r H C_s^T over
one common denominator, and the exact table is those integer blocks plus
that denominator; only the derivative order pairs a form uses are built.
Rectangles use the tensor product of two scaled copies of the 1D basis, and
their order-k form is the sum over j of C(k, j) times the Kronecker product of
the equal-order blocks (j, j) and (k-j, k-j) (Lynch, Rice & Thomas, Numer.
Math. 6, 1964).  All of it is integer arithmetic; each matrix entry is rounded
to binary64 exactly once, and a form beyond the binary64 range raises
``NumericalError``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm

import numpy as np

from .errors import InvalidParameterError, NumericalError
from .polyrec import Polynomial, _require_int

DEGREE_CAP = 24
CONDITIONING_NOTE = 16
HEADER_KEYS = {"schema", "n_basis", "l", "m", "domain", "matrices", "dtype", "order"}


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box: an interval (one edge) or a rectangle (two edges)."""

    edges: tuple

    def __post_init__(self):
        edges = tuple(float(e) for e in self.edges)
        if len(edges) not in (1, 2):
            raise InvalidParameterError(f"domain needs 1 or 2 edges, got {len(edges)}")
        for e in edges:
            if not (e > 0.0) or not np.isfinite(e):
                raise InvalidParameterError(f"edge lengths must be positive finite, got {e}")
        object.__setattr__(self, "edges", edges)

    @property
    def dim(self):
        return len(self.edges)

    @classmethod
    def interval(cls, length=1.0):
        return cls((length,))

    @classmethod
    def rectangle(cls, a=1.0, b=1.0):
        return cls((a, b))


@dataclass(frozen=True)
class Basis1D:
    """The m clamped basis polynomials on [0, 1] for boundary order l."""

    l: int
    m: int
    functions: tuple

    def __post_init__(self):
        if len(self.functions) != self.m:
            raise InvalidParameterError("basis length does not match m")


def _shifted_legendre(a):
    # L_a(2x - 1) has integer coefficients: sum_k (-1)**(a+k) C(a,k) C(a+k,k) x**k.
    return Polynomial(tuple((-1) ** (a + k) * comb(a, k) * comb(a + k, k) for k in range(a + 1)))


def _clamp_factor(l):
    # x**l (1-x)**l, ascending integer coefficients.
    coeffs = [0] * (2 * l + 1)
    for j in range(l + 1):
        coeffs[l + j] = (-1) ** j * comb(l, j)
    return Polynomial(tuple(coeffs))


def build_basis_1d(l, m):
    """Construct the clamped basis of size m; degree of b_a is 2l + a."""
    _require_int(l, "l", 2)
    _require_int(m, "m", 1)
    if m > DEGREE_CAP:
        raise InvalidParameterError(f"m={m} exceeds the supported cap {DEGREE_CAP}")
    if m > CONDITIONING_NOTE:
        warnings.warn(
            f"basis size m={m} is above {CONDITIONING_NOTE}; the mass matrix grows "
            "ill conditioned and eigenvalues may lose digits",
            stacklevel=2,
        )
    clamp = _clamp_factor(l)
    return Basis1D(l=l, m=m, functions=tuple(clamp * _shifted_legendre(a) for a in range(m)))


def derivative_integral_table(basis, orders):
    """Exact 1D blocks for the derivative order pairs (r, s) in ``orders``.

    Returns ``(blocks, den)``: the integral of b_a^(r) * b_b^(s) over [0, 1]
    is ``blocks[(r, s)][a, b] / den``, with each block an m x m integer
    array.  Orders run from 0 to l; beyond l the integration-by-parts
    identities used downstream stop holding at the boundary, so larger orders
    are refused.  Block (r, s) is C_r H C_s^T, with C_r the integer
    coefficients of the r-th derivatives and H the Hilbert matrix
    1/(i + j + 1) scaled to integers by den.  Entries with odd a + b + r + s
    vanish by the x -> 1-x symmetry of the basis and come out as exact zeros.
    """
    width = len(basis.functions[-1].coefficients)
    den = lcm(*range(1, 2 * width))  # clears every monomial integral 1/(i + j + 1)
    hilbert = [[den // (i + j + 1) for j in range(width)] for i in range(width)]
    hilbert = np.array(hilbert, dtype=object)
    coeffs = {}
    for order in {order for pair in orders for order in pair}:
        _require_int(order, "order", 0)
        if order > basis.l:
            raise InvalidParameterError(f"order {order} exceeds the boundary order l={basis.l}")
        rows = [f.derivative(order).coefficients for f in basis.functions]
        coeffs[order] = np.array([row + (0,) * (width - len(row)) for row in rows], dtype=object)
    return {(r, s): coeffs[r] @ hilbert @ coeffs[s].T for r, s in orders}, den


@dataclass(frozen=True)
class OperatorForms:
    """Form matrices A_1..A_l of one domain discretization, binary64, symmetric.

    ``matrices[k-1]`` represents the order-k polyharmonic form; the first one
    doubles as the mass-like matrix B of the buckling pencil.  ``n_basis`` is
    the matrix size: m on intervals, m**2 on rectangles (index a*m + c for
    the product b_a(x) b_c(y)).
    """

    domain: Domain
    l: int
    m: int
    n_basis: int
    matrices: tuple = field(repr=False)

    @property
    def b_matrix(self):
        return self.matrices[0]


def _form_terms(k, dim):
    # (binomial, (r, s) per axis) for the order-k form.  On a rectangle it is
    # sum_j C(k, j) |d_x^j d_y^(k-j) f|**2: integrating the Laplacian power's
    # cross blocks (2p, 2q) by parts gives (-1)**(q-p) (p+q, p+q) per axis, each
    # boundary term holding a derivative of order <= k-1 <= l-1 that the clamp
    # zeroes; the two axes' signs cancel, and Vandermonde's identity (Pascal's
    # rule for odd k) collects the binomials into C(k, j).
    if dim == 1:
        yield 1, ((k, k),)
        return
    for j in range(k + 1):
        yield comb(k, j), ((j, j), (k - j, k - j))


def _assemble(domain, basis):
    # Each form is a sum of Kronecker products of 1D table blocks, the block of
    # orders (r, s) scaled by edge**(1 - r - s).  The sum is carried out in
    # integers over one denominator, and the correctly rounded int / int
    # division rounds each entry once.
    forms = [list(_form_terms(k, domain.dim)) for k in range(1, basis.l + 1)]
    pairs = {pair for terms in forms for _, orders in terms for pair in orders}
    blocks, den = derivative_integral_table(basis, pairs)
    edges = [Fraction(e) for e in domain.edges]
    matrices = []
    for k, terms in enumerate(forms, start=1):
        weighted = []
        for weight, orders in terms:
            for edge, (r, s) in zip(edges, orders):
                weight *= edge ** (1 - r - s)
            weighted.append((weight, [blocks[pair] for pair in orders]))
        common = lcm(*(weight.denominator for weight, _ in weighted))
        total = 0
        for weight, (first, *rest) in weighted:
            product = first * (weight.numerator * (common // weight.denominator))
            for factor in rest:
                product = np.kron(product, factor)
            total += product
        try:
            matrices.append((total / (common * den**domain.dim)).astype(float))
        except OverflowError:
            raise NumericalError(
                f"the order-{k} form overflows binary64 on edges {domain.edges}"
            ) from None
    return basis.m**domain.dim, tuple(matrices)


def assemble_forms(domain, l, m):
    """Assemble A_1..A_l on the given domain from exact rationals.

    Every matrix is exactly symmetric because symmetric entries are the same
    rational rounded once.  Positive definiteness of B = A_1 and of A_l is
    checked by Cholesky before returning.
    """
    if not isinstance(domain, Domain):
        raise InvalidParameterError("domain must be a Domain instance")
    basis = build_basis_1d(l, m)
    n_basis, matrices = _assemble(domain, basis)
    from .eigen import cholesky_spd  # deferred: eigen imports this module

    cholesky_spd(matrices[0])
    cholesky_spd(matrices[-1])
    return OperatorForms(domain=domain, l=l, m=m, n_basis=n_basis, matrices=matrices)


def export_forms(forms, path):
    """Write a one-line JSON header, then each matrix as row-major binary64."""
    header = {
        "schema": 1,
        "n_basis": forms.n_basis,
        "l": forms.l,
        "m": forms.m,
        "domain": list(forms.domain.edges),
        "matrices": len(forms.matrices),
        "dtype": "<f8",
        "order": "C",
    }
    with open(path, "wb") as handle:
        handle.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        for mat in forms.matrices:
            handle.write(np.ascontiguousarray(mat, dtype="<f8").tobytes())


def load_forms(path):
    """Read a file written by ``export_forms`` back into ``OperatorForms``.

    The header must be ASCII JSON with every key ``export_forms`` writes and
    the little-endian row-major layout, and it is checked against the data:
    one matrix per order up to l, n_basis equal to m**dim, no bytes after
    the last matrix, and every matrix exactly symmetric.
    """
    with open(path, "rb") as handle:
        try:
            header = json.loads(handle.readline().decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise InvalidParameterError(f"the header of {path} is not ASCII JSON") from None
        if not isinstance(header, dict):
            raise InvalidParameterError(f"the header of {path} is not a JSON object")
        if header.get("schema") != 1:
            raise InvalidParameterError(f"unknown forms schema {header.get('schema')!r}")
        missing = sorted(HEADER_KEYS - header.keys())
        if missing:
            raise InvalidParameterError(f"the header of {path} lacks {', '.join(missing)}")
        if header["dtype"] != "<f8" or header["order"] != "C":
            raise InvalidParameterError(
                f"dtype={header['dtype']!r}, order={header['order']!r} in {path}, "
                "expected '<f8' and 'C'"
            )
        edges = header["domain"]
        if not isinstance(edges, list) or not all(type(e) in (int, float) for e in edges):
            raise InvalidParameterError(f"domain={edges!r} in {path} is not a list of edges")
        domain = Domain(tuple(edges))
        l, m, n = header["l"], header["m"], header["n_basis"]
        _require_int(l, "l", 2)
        _require_int(m, "m", 1)
        _require_int(n, "n_basis", 1)
        if header["matrices"] != l:
            raise InvalidParameterError(f"{header['matrices']} matrices in {path}, expected l={l}")
        if n != m**domain.dim:
            raise InvalidParameterError(
                f"n_basis={n} in {path}, expected m**dim = {m**domain.dim}"
            )
        matrices = []
        for _ in range(l):
            block = handle.read(8 * n * n)
            if len(block) != 8 * n * n:
                raise InvalidParameterError(f"truncated matrix block in {path}")
            matrices.append(np.frombuffer(block, dtype="<f8").reshape(n, n).copy())
        if handle.read(1):
            raise InvalidParameterError(f"trailing bytes after the last matrix in {path}")
    for k, mat in enumerate(matrices, start=1):
        if not np.array_equal(mat, mat.T):
            raise InvalidParameterError(f"matrix {k} in {path} is not symmetric")
    return OperatorForms(domain=domain, l=l, m=m, n_basis=n, matrices=tuple(matrices))
