"""Clamped polynomial bases and exact assembly of polyharmonic form matrices.

The 1D basis on [0, 1] is b_a(x) = x**l (1-x)**l * L_a(2x - 1) with L_a the
Legendre polynomial of degree a, so b_a and its first l-1 derivatives vanish
at both endpoints.  In t = 2x - 1 the basis is 4^-l (1 - t^2)^l L_a(t), and
2^(m-1) 4^l b_a has integer coefficients on powers of the parity of a only
(the even/odd split of Legendre bases, J. Shen, SIAM J. Sci. Comput. 15,
1994).  Those integer rows in t, ``_basis_rows``, are the only form of the
basis that is built; ``Basis1D`` holds just (l, m).  So the Gram block
G_j[a, b] of the j-th derivatives is zero for odd a + b.  Integrating by
parts j times moves every derivative onto one factor, since the clamp zeroes
each boundary term for j <= l: G_j = (-1)^j (C H') C_(2j)^T, with C the rows
of one parity class, C_(2j) the rows of their (2j)-th derivatives and H'
the Hilbert matrix over that class's powers, holding only the odd
denominators p + q + 1.  The product C H' is built once per parity class
and shared by every order; an exact right shift puts the blocks over one
common denominator, lcm(1..2w - 1) for w = 2l + m coefficients.  The bases
are nested (b_a does not depend on m), so each block is built once per
(l, j) and size and kept: a smaller m gets the leading sub-block of the
largest one built, divided exactly by the ratio of the two denominators,
since both are the same integrals times an integer denominator.  Every form
is a weighted Kronecker sum of these equal-order blocks: on a box the
order-k form is the sum, over per-axis orders j with |j| = k, of the
multinomial k! / prod(j_i!) times the Kronecker product of the blocks
G_(j_i) (Lynch, Rice & Thomas, Numer. Math. 6, 1964), of size N = m**dim.
Only the parity-even upper half of each form is computed: G_j[a, b] = 0 for
odd a + b, and the first axis keeps a <= b; the lower half is written as
the mirror image.  All of it is integer arithmetic; each matrix entry is
rounded to binary64 exactly once, and a form beyond the binary64 range
raises ``NumericalError`` when it is built.

Only the forms a caller reads are built.  ``assemble_forms`` builds the
pencil (A_l, A_1) at once, from the 1D blocks of the orders those two forms
use, and a ladder's coarser rung slices that pencil out of the finest one.
A_2..A_(l-1), which only Lemma 2.1's check and an export read, are
assembled at the forms' own m on their first read, in one
``OperatorForms._read``, and kept.  Each form is the same exact rational
rounded once whenever and at whatever size it is built.

This module builds, rounds, slices, exports and loads exact forms, and
imports no solver: it factors no matrix and never warns about conditioning,
so forms exist for every (domain, l, m) under the caps, also where the float
pencil cannot be solved.  ``eigen.solve_buckling`` checks that its pencil is
definite and warns when its digits may not be trusted.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from fractions import Fraction
from math import comb, factorial, lcm, perm, prod

import numpy as np

from .errors import (
    InvalidParameterError,
    NumericalError,
    _collected,
    _converted,
    _Record,
    _require_int,
    _require_path,
    _require_positive_floats,
    _require_type,
)

DEGREE_CAP = 24
BASIS_CAP = DEGREE_CAP**2  # the largest N a rectangle reaches; m <= 8 on a box


class Domain(_Record):
    """Axis-aligned box [0, e_1] x ... x [0, e_n] with 1 to 3 edges.

    One edge is an interval, two a rectangle and three a box; n = ``dim``
    is the dimension the paper's inequalities take.
    """

    def __init__(self, edges):
        edges = _require_positive_floats(edges, "edge lengths")
        if not 1 <= len(edges) <= 3:
            raise InvalidParameterError(f"domain needs 1 to 3 edges, got {len(edges)}")
        self._store(locals())

    @property
    def dim(self):
        return len(self.edges)

    @classmethod
    def interval(cls, length=1.0):
        return cls((length,))

    @classmethod
    def rectangle(cls, a=1.0, b=1.0):
        return cls((a, b))


class Basis1D(_Record):
    """The clamped basis b_0..b_(m-1) on [0, 1] for boundary order l.

    It holds only l and m, and checks them when it is made: l >= 2 and
    1 <= m <= ``DEGREE_CAP``, both integers.  The polynomials themselves are
    the integer rows of ``_basis_rows(l, m)``, which the 1D table integrates.
    """

    def __init__(self, l, m):
        _require_int(l, "l", 2)
        _require_int(m, "m", 1)
        if m > DEGREE_CAP:
            raise InvalidParameterError(f"m={m} exceeds the supported cap {DEGREE_CAP}")
        self._store(locals())


def build_basis_1d(l, m):
    """The checked clamped basis of size m; b_a has degree 2l + a.

    Its polynomials are the integer rows of ``_basis_rows(l, m)``.
    """
    return Basis1D(l=l, m=m)


# The largest Gram block built so far for each (l, order j), as (m, den, block).
_TABLES = {}


def derivative_integral_table(basis, orders):
    """Exact 1D Gram blocks for the derivative orders j in ``orders``.

    Returns ``(blocks, den)``: the integral of b_a^(j) * b_b^(j) over [0, 1]
    is ``blocks[j][a, b] / den``, with each block a fresh m x m integer
    array and den = lcm(1, ..., 2(2l + m) - 1).  The basis must be a
    ``Basis1D``, which checked its l and m when it was made.  Orders run
    from 0 to l; beyond l the integration-by-parts identities used
    downstream stop holding at the boundary, so larger orders are refused,
    all of them before any block is built.

    The integrals are taken in t = 2x - 1, on the integer rows
    2^(m-1) 4^l b_a of ``_basis_rows``, each holding only powers of the
    parity of a.  Since d/dx = 2 d/dt, and since j integrations by parts
    leave no boundary term for j <= l, the order-j entry is (-1)^j times
    the integral of row a against the (2j)-th derivative of row b, whose
    coefficient at t^p is that of t^(p+2j) times (p + 2j)! / p! * 4^j.
    Half the integral over [-1, 1] of t^(p+q) is 1/(p + q + 1) for even
    p + q and 0 otherwise, so entries with odd a + b are exact zeros, and
    the even and the odd a each make one product (C H') C_(2j)^T over about
    half the powers, with the Hilbert entries H'[p, q] = odd / (p + q + 1)
    over the odd part of den.  C H' does not depend on j: it is built once
    per parity class and shared by every order asked for.  That sum is the
    integral times odd * 2^(4l + 2(m-1)); a right shift by
    4l + 2(m-1) - v_2(den) turns it into the integral times den, dropping
    only zero bits.

    Each block is built once per (l, j) and size: b_a does not depend on m,
    so the block of a basis of size m is the leading m x m sub-block of the
    block of any larger basis.  The largest block built so far is kept for
    each (l, j), with its den_M.  A smaller m is served from it, divided by
    den_M / den_m: den_m divides den_M, and both entries are the same
    integral times an integer denominator, so the quotient is exact.  A
    larger m builds only the orders asked for, at that m, and replaces
    their entries.  Orders are keys, so an interval's orders 1..l also
    serve a rectangle's.
    """
    _require_type(basis, Basis1D, "basis")
    l, m = basis.l, basis.m
    orders = _collected(set, orders, "orders", "integers")
    for j in orders:
        _require_int(j, "order", 0)
        if j > l:
            raise InvalidParameterError(f"order {j} exceeds the boundary order l={l}")
    den = lcm(*range(1, 2 * (2 * l + m)))
    # Entries are read once and never mutated, so another caller replacing
    # one meanwhile cannot change what this call returns.
    kept = {j: _TABLES.get((l, j)) for j in orders}
    missing = {j for j, entry in kept.items() if entry is None or entry[0] < m}
    if missing:
        for j, block in _integer_blocks(l, m, missing, den).items():
            kept[j] = _TABLES[l, j] = m, den, block
    return {j: block[:m, :m] // (built // den) for j, (_, built, block) in kept.items()}, den


def _basis_rows(l, m):
    # The basis in t = 2x - 1, the only form of it the package builds: row a
    # holds the ascending coefficients of t^0 .. t^(2l + m - 1) of the integer
    # polynomial 2^(m-1) 4^l b_a = 2^(m-1-a) 2^a L_a(t) (1 - t^2)^l, where
    # 2^a L_a(t) = sum_k (-1)^k C(a,k) C(2a-2k,a) t^(a-2k), so the row holds
    # only powers of the parity of a.
    rows = np.zeros((m, 2 * l + m), dtype=object)
    for a in range(m):
        for k in range(a // 2 + 1):
            rows[a, a - 2 * k] = (-1) ** k * comb(a, k) * comb(2 * (a - k), a) << m - 1 - a
    for _ in range(l):
        rows[:, 2:] = rows[:, 2:] - rows[:, :-2]
    return rows


def _integer_blocks(l, m, orders, den):
    # The Gram blocks of the given orders at basis size m, times den, built
    # from the parity-split Hilbert products described above: the product
    # C H' of each parity class is shared by every order.
    width = 2 * l + m
    v = (2 * width - 1).bit_length() - 1  # den is its odd part times 2^v
    # H'[p, q] for even p + q, a Hankel matrix: entry (p + q) / 2 of this vector
    hilbert = np.array([(den >> v) // (2 * n + 1) for n in range(width)], dtype=object)
    rows = _basis_rows(l, m)
    blocks = {j: np.zeros((m, m), dtype=object) for j in orders}
    for g in (0, 1):  # rows a = g (mod 2) hold the powers p = g (mod 2)
        p = np.arange(g, width, 2)
        shared = rows[g::2, p] @ hilbert[np.add.outer(p, p) // 2]
        for j, block in blocks.items():
            # the (2j)-th derivative of row b, signed (-1)^j, at the powers q
            q = p[p + 2 * j < width]
            factors = [(-1) ** j * perm(n, 2 * j) << 2 * j for n in q + 2 * j]
            derivative = rows[g::2, q + 2 * j] * np.array(factors, dtype=object)
            block[g::2, g::2] = shared[:, : q.size] @ derivative.T
    return {j: block >> 4 * l + 2 * (m - 1) - v for j, block in blocks.items()}


def _float_array(value, name):
    # value as a float array, with what float() refuses raised as
    # InvalidParameterError, and a complex array refused too: numpy would
    # drop its imaginary part with only a warning
    array = _converted(np.asarray, value, name)
    if np.iscomplexobj(array):
        raise InvalidParameterError(f"{name} must be real")
    return _converted(functools.partial(np.asarray, dtype=float), array, name)


class OperatorForms:
    """Form matrices A_1..A_l of one domain discretization, binary64, symmetric.

    ``matrices[k-1]`` represents the order-k polyharmonic form; the first one
    doubles as the mass-like matrix B of the buckling pencil, ``b_matrix``.
    The matrix size ``n_basis`` is derived, m**dim, at most ``BASIS_CAP``.
    Indices are mixed radix m: the product b_a(x) b_c(y) b_e(z) of a box is
    row (a*m + c)*m + e, and a*m + c on a rectangle.

    The constructor takes all l matrices and checks them once: it refuses
    with ``InvalidParameterError`` a domain that is not a ``Domain``, an l
    or m that ``assemble_forms`` refuses, a count other than l, a complex
    matrix, and any matrix that does not convert to a finite, exactly
    symmetric float array of shape (m**dim, m**dim).  So ``export_forms``
    writes any forms it accepts to a file that ``load_forms`` reads back bit
    for bit.  Forms from ``assemble_forms`` hold the pencil (A_l, A_1) from
    the start; the first read of any other order assembles it at this m,
    together with the other orders of that read not yet built, and keeps it,
    so each later read returns the same arrays.  A form that overflows
    binary64 raises ``NumericalError`` on the read that builds it.
    """

    def __init__(self, domain, l, m, matrices):
        _checked_basis(domain, l, m)
        forms = _checked_matrices(l, m**domain.dim, matrices)
        self.domain, self.l, self.m, self._forms = domain, l, m, forms

    @classmethod
    def _built(cls, domain, l, m, forms):
        # Forms of a checked request whose matrices, as {k: matrix}, this
        # module built, exact by construction, or loaded and checked, so
        # nothing is checked again.  Every other order is assembled on its
        # first read.
        built = cls.__new__(cls)
        built.domain, built.l, built.m, built._forms = domain, l, m, forms
        return built

    def __repr__(self):
        return f"OperatorForms(domain={self.domain!r}, l={self.l!r}, m={self.m!r})"

    def _read(self, orders):
        # The forms of the orders k, assembling at this m, in one call, those
        # not yet built: the one place a missing order is built.
        missing = [k for k in orders if k not in self._forms]
        if missing:
            self._forms.update(_assemble(self.domain, Basis1D(self.l, self.m), missing))
        return tuple(self._forms[k] for k in orders)

    @property
    def matrices(self):
        return self._read(range(1, self.l + 1))

    @property
    def n_basis(self):
        return self.m**self.domain.dim

    @property
    def b_matrix(self):
        return self._read((1,))[0]

    @property
    def _a_matrix(self):
        # A_l, the pencil's other form.
        return self._read((self.l,))[0]


def _checked_matrices(l, n, matrices):
    # The forms' check of their matrices, as {k: matrix}: l of them, each
    # converting to a finite, exactly symmetric float array of shape (n, n).
    forms = {}
    for k, mat in enumerate(_collected(tuple, matrices, "matrices", "arrays"), start=1):
        mat = _float_array(mat, f"matrix {k}")
        if mat.shape != (n, n) or not np.isfinite(mat).all() or not np.array_equal(mat, mat.T):
            raise InvalidParameterError(f"matrix {k} is not a finite symmetric {n} x {n} array")
        forms[k] = mat
    if len(forms) != l:
        raise InvalidParameterError(f"forms of order l={l} need {l} matrices, got {len(forms)}")
    return forms


def _form_terms(k, dim):
    # (multinomial, per-axis orders j) for every j with |j| = k: the order-k
    # form is the sum of k! / prod(j_i!) |d^j f|**2.  On an interval that is
    # the single term 1 * (k,).  On a rectangle, integrating the Laplacian
    # power's cross blocks (2p, 2q) by parts gives (-1)**(q-p) (p+q, p+q) per
    # axis, each boundary term holding a derivative of order <= k-1 <= l-1
    # that the clamp zeroes; the two axes' signs cancel, and Vandermonde's
    # identity (Pascal's rule for odd k) collects the binomials into C(k, j).
    # On a box the same steps over every pair of axes collect the
    # multinomial expansion of Lap**p into the multinomial above.
    for orders in itertools.product(range(k + 1), repeat=dim):
        if sum(orders) == k:
            yield factorial(k) // prod(map(factorial, orders)), orders


def _mixed_radix(digits, base):
    # Flat positions base**(dim-1) i_1 + ... + i_dim of the index tuples whose
    # axis-s index runs over digits[s], one array axis per axis of the box.
    return functools.reduce(lambda index, d: np.add.outer(index * base, d), digits)


@functools.lru_cache(maxsize=None)
def _parity_layout(m, dim):
    # Where assembly reads and writes, which depends on m and dim only: the
    # first-axis block pairs (a, b) with a + b even and a <= b, the pairs
    # (c, d) with c + d even that every other axis uses, both as flat block
    # indices a*m + b, and the flat form positions of each computed entry,
    # at row (a, c, ...) and column (b, d, ...) in mixed radix m, and of its
    # mirror image, one row per first-axis pair.  An interval has no other
    # axes.  The cached arrays are only ever read.
    a, b = np.divmod(np.arange(m * m), m)
    other = np.flatnonzero((a + b) % 2 == 0)
    first = other[a[other] <= b[other]]
    rows = _mixed_radix([a[first]] + [a[other]] * (dim - 1), m).reshape(first.size, -1)
    cols = _mixed_radix([b[first]] + [b[other]] * (dim - 1), m).reshape(first.size, -1)
    n = m**dim
    return first, other, rows * n + cols, cols * n + rows


@functools.lru_cache(maxsize=None)
def _parity_classes(m, dim):
    # The flat indices of each x -> 1-x parity class, ascending: class
    # (g_1, ..., g_dim) holds the rows whose axis-s index has parity g_s, and
    # the classes come in the lexicographic order of g.  No form couples two
    # classes: every entry between them is a structural zero.  The cached
    # arrays are only ever read.
    digits = (np.arange(0, m, 2), np.arange(1, m, 2))
    return tuple(
        _mixed_radix([digits[g] for g in parities], m).ravel()
        for parities in itertools.product((0, 1), repeat=dim)
    )


def _assemble(domain, basis, ks):
    # The forms of the orders k in ks, as {k: matrix}, from one table call
    # for the 1D blocks they use.  Each form is a sum of Kronecker products
    # of 1D Gram blocks, the block of order j scaled by edge**(1 - 2j).  Only
    # the entries that can be nonzero are computed, each once: block pairs
    # (a, b) with a + b even (the x -> 1-x parity zeroes the rest), and on the
    # first axis only a <= b, the other half being the mirror image of a
    # symmetric form.  The weighted sum over terms is one integer product:
    # the first-axis pair values, a column per term, times the term's integer
    # weight times the outer product of the other axes' pair values, a row
    # per term.  On an interval that row is the weight alone, so the product
    # is the weighting itself.
    # The correctly rounded int / int division rounds each entry once.
    forms = {k: list(_form_terms(k, domain.dim)) for k in sorted(ks)}
    used = {j for terms in forms.values() for _, orders in terms for j in orders}
    blocks, den = derivative_integral_table(basis, used)
    edges = [Fraction(e) for e in domain.edges]
    n = basis.m**domain.dim
    first, other, upper, lower = _parity_layout(basis.m, domain.dim)
    matrices = {}
    for k, terms in forms.items():
        weights = []
        for weight, orders in terms:
            for edge, j in zip(edges, orders):
                weight *= edge ** (1 - 2 * j)
            weights.append(weight)
        common = lcm(*(weight.denominator for weight in weights))
        rows = []
        for weight, (_, orders) in zip(weights, terms):
            row = np.array([weight.numerator * (common // weight.denominator)], dtype=object)
            for j in orders[1:]:
                row = np.multiply.outer(row, blocks[j].take(other)).ravel()
            rows.append(row)
        columns = np.array([blocks[orders[0]].take(first) for _, orders in terms], dtype=object).T
        values = columns @ np.array(rows, dtype=object)
        out = np.zeros(n * n)
        try:
            out[upper] = out[lower] = (values / (common * den**domain.dim)).astype(float)
        except OverflowError:
            raise NumericalError(
                f"the order-{k} form overflows binary64 on edges {domain.edges}"
            ) from None
        matrices[k] = out.reshape(n, n)
    return matrices


def _checked_basis(domain, l, m):
    # The one check of a discretization request, which every entry point
    # that takes one makes before its own rules: a Domain, l and m that
    # Basis1D takes, and a basis size m**dim within BASIS_CAP.  Returns the
    # basis.
    if not isinstance(domain, Domain):
        raise InvalidParameterError("domain must be a Domain instance")
    basis = build_basis_1d(l, m)
    if m**domain.dim > BASIS_CAP:
        raise InvalidParameterError(
            f"basis size m**dim = {m**domain.dim} exceeds the supported cap {BASIS_CAP}"
        )
    return basis


def assemble_forms(domain, l, m):
    """Assemble A_1..A_l on the given domain from exact rationals.

    Every matrix is exactly symmetric because symmetric entries are the same
    rational rounded once.  The pencil (A_l, A_1) is built here, in one
    assembly, from the 1D blocks of orders {1, l} on an interval and 0..l on
    a rectangle or box, and raises ``NumericalError`` if either form
    overflows binary64.  A_2..A_(l-1) are built on their first read (see
    ``OperatorForms``).  The basis size m**dim is capped at ``BASIS_CAP``,
    which keeps a box at m <= 8.  Nothing here factors or solves: whether
    the pencil is definite enough to solve, and the m > 16 conditioning
    warning, are ``solve_buckling``'s to check.
    """
    basis = _checked_basis(domain, l, m)
    return OperatorForms._built(domain, l, m, _assemble(domain, basis, (1, l)))


def _leading_forms(forms, m):
    # The pencil (A_l, A_1) of basis size m <= forms.m: the bases are nested,
    # so it is the rows and columns whose every axis index is below m, at
    # their mixed radix positions in the basis of size M = forms.m, in that
    # order.  Each entry is the same exact rational rounded once (den
    # cancels), so the copy equals assemble_forms(forms.domain, forms.l, m)
    # bit for bit.  Any other order is assembled at m on its first read, like
    # that of assembled forms.
    index = _mixed_radix([np.arange(m)] * forms.domain.dim, forms.m).ravel()
    sub = np.ix_(index, index)
    pencil = (1, forms.l)
    sliced = {k: mat[sub] for k, mat in zip(pencil, forms._read(pencil))}
    return OperatorForms._built(forms.domain, forms.l, m, sliced)


def _header(domain, l, m):
    # The first line of a forms file: the only header export_forms writes,
    # and the only one load_forms accepts.
    header = {
        "schema": 1,
        "n_basis": m**domain.dim,
        "l": l,
        "m": m,
        "domain": list(domain.edges),
        "matrices": l,
        "dtype": "<f8",
        "order": "C",
    }
    return (json.dumps(header, sort_keys=True) + "\n").encode("ascii")


def export_forms(forms, path):
    """Write a one-line JSON header, then each matrix as row-major binary64."""
    _require_path(path)
    _require_type(forms, OperatorForms, "forms")
    with open(path, "wb") as handle:
        handle.write(_header(forms.domain, forms.l, forms.m))
        for mat in forms.matrices:
            handle.write(np.ascontiguousarray(mat, dtype="<f8").tobytes())


def load_forms(path):
    """Read a file written by ``export_forms`` back into ``OperatorForms``.

    The file loads only when its first line is, byte for byte, the header
    that ``export_forms`` writes for the domain, l and m it names, and the
    rest is exactly l little-endian row-major binary64 matrices of size
    m**dim.  Its domain, l and m are checked as ``assemble_forms`` checks
    them, caps included, and the length of the rest too, before any matrix
    is read; the matrices are then checked as the ``OperatorForms``
    constructor checks them, which refuses any that is not finite and
    exactly symmetric.
    """
    _require_path(path)
    with open(path, "rb") as handle:
        line = handle.readline()
        try:
            header = json.loads(line.decode("ascii"))
        except ValueError:  # not ASCII, not JSON, or an integer too long to read
            raise InvalidParameterError(f"the header of {path} is not ASCII JSON") from None
        if not isinstance(header, dict):
            raise InvalidParameterError(f"the header of {path} is not a JSON object")
        if header.get("schema") != 1:
            raise InvalidParameterError(f"unknown forms schema {header.get('schema')!r}")
        domain = Domain(header.get("domain"))
        l, m = header.get("l"), header.get("m")
        _checked_basis(domain, l, m)
        n = m**domain.dim
        if line != _header(domain, l, m):
            raise InvalidParameterError(
                f"the header of {path} is not the one export_forms writes for its domain, l and m"
            )
        size = os.fstat(handle.fileno()).st_size - handle.tell()
        if size != 8 * l * n * n:
            raise InvalidParameterError(
                f"{path} has {size} bytes after its header, expected {l} matrices {n} x {n}"
            )
        data = np.empty((l, n, n), dtype="<f8")
        if handle.readinto(data) != size:
            raise InvalidParameterError(f"{path} changed while it was read")
    return OperatorForms._built(domain, l, m, _checked_matrices(l, n, data))
