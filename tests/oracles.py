"""Independent reference computations that pin expected test values.

Every routine here reaches a result along a different route from the
package: symbolic algebra instead of integer tuple recursion, finite
differences instead of exact Galerkin assembly, the clamped ODE's
determinant instead of a Galerkin pencil, per-entry Fraction
integrals instead of integer Hilbert and Kronecker products, full Hilbert
products of x-coefficients instead of parity halves in t = 2x - 1, dense grid
search and block-partition enumeration instead of a pool-adjacent-violators
pass, and a fine upward geometric scan plus bisection instead of doubling
brackets or a downward walk.  The one exception is
``generalized_eigenpairs``, the package's dense reduction written out in
plain numpy and scipy calls with no buffer reuse, so that the package's
memory-lean solve can be held to it bit for bit.  The closed sphere's
spectrum, which the package cannot solve for, comes in closed form from its
spherical harmonics.  Nothing in this module imports from the package.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import scipy.linalg
import sympy
from scipy.optimize import brentq
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import eigsh

_T, _N, _X = sympy.symbols("t n x")


def phi_symbolic(q, n=None):
    """Polynomial family via sympy expansion; coefficients ascending in t.

    With n=None the coefficients stay symbolic in n.
    """
    nn = _N if n is None else sympy.Integer(n)
    if q == 1:
        poly = _T - 1
    elif q == 2:
        poly = _T**2 - (nn + 5) * _T - (nn - 2)
    else:
        prev2 = phi_symbolic(q - 2, n)
        prev = phi_symbolic(q - 1, n)
        prev2 = sum(c * _T**i for i, c in enumerate(prev2))
        prev = sum(c * _T**i for i, c in enumerate(prev))
        poly = (2 * _T - 2) * prev - (_T**2 + 2 * _T - nn * (nn - 2)) * prev2
    poly = sympy.Poly(sympy.expand(poly), _T)
    return list(reversed(poly.all_coeffs()))


def fg_symbolic(q, n=None):
    nn = _N if n is None else sympy.Integer(n)
    step = lambda cur, prev: sympy.expand(
        (2 * _T - 2) * cur - (_T**2 + 2 * _T - nn * (nn - 2)) * prev
    )
    f_prev, g_prev = sympy.Integer(1), sympy.Integer(1)
    f_cur, g_cur = _T - (nn + 2), 3 * _T + nn - 2
    if q == 0:
        f_cur, g_cur = f_prev, g_prev
    for _ in range(2, q + 1):
        f_cur, f_prev = step(f_cur, f_prev), f_cur
        g_cur, g_prev = step(g_cur, g_prev), g_cur
    coeffs = lambda p: list(reversed(sympy.Poly(sympy.expand(p), _T).all_coeffs()))
    return coeffs(f_cur), coeffs(g_cur)


def beta_integral(p, q):
    """Exact integral of x^p (1-x)^q over [0, 1]."""
    return Fraction(math.factorial(p) * math.factorial(q), math.factorial(p + q + 1))


def basis_integral_sympy(l, a, b, r, s):
    """Exact integral of the r-th and s-th basis derivatives via sympy."""
    fa = _X**l * (1 - _X) ** l * sympy.legendre(a, 2 * _X - 1)
    fb = _X**l * (1 - _X) ** l * sympy.legendre(b, 2 * _X - 1)
    product = sympy.diff(fa, _X, r) * sympy.diff(fb, _X, s)
    return sympy.integrate(sympy.expand(product), (_X, 0, 1))


def _clamped_basis(l, m):
    """Ascending integer coefficients of x^l (1-x)^l L_a(2x - 1) for a < m."""
    clamp = [0] * l + [(-1) ** j * math.comb(l, j) for j in range(l + 1)]
    basis = []
    for a in range(m):
        legendre = [(-1) ** (a + k) * math.comb(a, k) * math.comb(a + k, k) for k in range(a + 1)]
        product = [0] * (len(clamp) + len(legendre) - 1)
        for i, c in enumerate(clamp):
            for j, d in enumerate(legendre):
                product[i + j] += c * d
        basis.append(product)
    return basis


def _integral01(c, d):
    # Exact integral over [0, 1] of the product of two integer polynomials.
    conv = [0] * (len(c) + len(d) - 1)
    for i, ci in enumerate(c):
        for j, dj in enumerate(d):
            conv[i + j] += ci * dj
    return sum(Fraction(v, k + 1) for k, v in enumerate(conv) if v)


def _multi_indices(p, dim):
    """Every alpha of dim nonnegative integers with |alpha| = p."""
    return [alpha for alpha in itertools.product(range(p + 1), repeat=dim) if sum(alpha) == p]


def reference_forms(edges, l, m):
    """Form matrices A_1..A_l assembled entry by entry in Fraction arithmetic.

    Each 1D block entry is its own convolution integral.  On a box of any
    number of edges the k-th form pairs Lap^p u with Lap^p v for k = 2p,
    each Laplacian power expanded by the multinomial rule
    Lap^p = sum over |alpha| = p of p!/alpha! d^(2 alpha); odd k adds one
    more derivative on a common gradient axis.  A product basis function
    is indexed in C order over its per-axis indices.  Every entry is one
    exact rational rounded once by ``float``.
    """
    dim = len(edges)
    basis = _clamped_basis(l, m)
    derivs = [basis]
    for _ in range(l):
        derivs.append([[p * c[p] for p in range(1, len(c))] for c in derivs[-1]])

    @lru_cache(maxsize=None)
    def scaled(axis, r, s):
        factor = Fraction(edges[axis]) ** (1 - r - s)
        return [[_integral01(derivs[r][a], derivs[s][b]) * factor for b in range(m)]
                for a in range(m)]

    def multinomial(alpha):
        return math.factorial(sum(alpha)) // math.prod(map(math.factorial, alpha))

    def entry(k, row, col):
        p, odd = divmod(k, 2)
        total = Fraction(0)
        for alpha, beta in itertools.product(_multi_indices(p, dim), repeat=2):
            weight = multinomial(alpha) * multinomial(beta)
            for g in range(dim) if odd else (None,):
                term = Fraction(weight)
                for axis in range(dim):
                    r = 2 * alpha[axis] + (axis == g)
                    s = 2 * beta[axis] + (axis == g)
                    term *= scaled(axis, r, s)[row[axis]][col[axis]]
                total += term
        return total

    index = list(itertools.product(range(m), repeat=dim))
    matrices = []
    for k in range(1, l + 1):
        exact = [[None] * len(index) for _ in index]
        for i, row in enumerate(index):
            for j in range(i, len(index)):
                exact[i][j] = exact[j][i] = entry(k, row, index[j])
        matrices.append(np.array([[float(v) for v in row] for row in exact]))
    return matrices


def hilbert_table(l, m, orders):
    """The 1D Gram blocks ``(blocks, den)`` of the size-m basis as full products in x.

    Block j is C_j H C_j^T, where column p of C_j is column p + j of the
    integer x-coefficient matrix of ``_clamped_basis(l, m)`` times
    (p + j)! / p!, and H is the Hilbert matrix 1/(p + q + 1) over all
    powers, scaled to integers by den = lcm(1, ..., 2w - 1) for w = 2l + m
    coefficients.  Orders are not validated.
    """
    basis = _clamped_basis(l, m)
    width = len(basis[-1])
    den = math.lcm(*range(1, 2 * width))  # clears every monomial integral 1/(p + q + 1)
    hilbert = den // np.add.outer(range(1, width + 1), range(width)).astype(object)
    coeffs = np.array([c + [0] * (width - len(c)) for c in basis], dtype=object)
    blocks = {}
    for j in set(orders):
        factors = np.array([math.perm(p, j) for p in range(j, width)], dtype=object)
        shifted = coeffs[:, j:] * factors
        blocks[j] = shifted @ hilbert[: width - j, : width - j] @ shifted.T
    return blocks, den


def fd_square_buckling(cells, count=1):
    """Clamped buckling eigenvalues on the unit square by finite differences.

    13-point biharmonic stencil; the zero normal derivative enters through
    ghost-point reflection, which folds a +1 onto the diagonal of the 1D
    fourth-derivative operator at the first and last interior nodes.
    """
    h = 1.0 / cells
    m = cells - 1
    d4 = diags(
        [np.ones(m - 2), -4 * np.ones(m - 1), 6 * np.ones(m),
         -4 * np.ones(m - 1), np.ones(m - 2)],
        [-2, -1, 0, 1, 2],
        format="lil",
    )
    d4[0, 0] += 1.0
    d4[m - 1, m - 1] += 1.0
    d4 = (d4 / h**4).tocsr()
    d2 = diags(
        [np.ones(m - 1), -2 * np.ones(m), np.ones(m - 1)], [-1, 0, 1]
    ) / h**2
    one = identity(m, format="csr")
    a_mat = kron(d4, one) + kron(one, d4) + 2 * kron(d2, d2)
    b_mat = -(kron(d2, one) + kron(one, d2))
    v0 = np.full(m * m, 1.0 / math.sqrt(m * m))
    vals = eigsh(
        a_mat.tocsc(), k=count, M=b_mat.tocsc(), sigma=0.0, which="LM",
        v0=v0, return_eigenvectors=False,
    )
    return np.sort(vals)


def fd_square_lambda1(grids=(32, 64, 128)):
    """Richardson-extrapolated first eigenvalue from three nested grids."""
    a, b, c = (float(fd_square_buckling(g)[0]) for g in grids)
    first = b + (b - a) / 3.0
    second = c + (c - b) / 3.0
    return second + (second - first) / 15.0


def grid_search_delta(a, b, rounds=60, points=13):
    """Dense zooming grid search for the monotone weight problem.

    Searches over the gap parametrization delta_i = sum of s_j for j >= i
    with s_j >= 0, so every grid point satisfies the non-increasing
    constraint by construction; returns (delta, objective).  The objective
    is convex in s, so the window shrinks around interior argmins; an
    argmin on a window edge widens that axis instead, since the optimum may
    sit outside (the s_j = 0 edge is a real constraint and never widens).
    The search stops after ``rounds`` rounds, or sooner once every axis
    window is at most 2^-52 times the largest sqrt(b_i / a_i).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = a.size
    top = float(np.max(np.sqrt(b / a)))
    lows = np.zeros(k)
    highs = np.full(k, top)
    best = None
    for _ in range(rounds):
        axes = [np.linspace(lows[i], highs[i], points) for i in range(k)]
        mesh = np.meshgrid(*axes, indexing="ij")
        s = np.stack([g.ravel() for g in mesh], axis=1)
        delta = np.cumsum(s[:, ::-1], axis=1)[:, ::-1]
        with np.errstate(divide="ignore"):
            vals = (delta * a).sum(axis=1) + np.where(
                delta > 0.0, b / np.where(delta > 0.0, delta, 1.0), np.inf
            ).sum(axis=1)
        pick = int(np.argmin(vals))
        best = s[pick]
        spacing = (highs - lows) / (points - 1)
        width = highs - lows
        at_high = best >= highs - 0.5 * spacing
        at_low = (best <= lows + 0.5 * spacing) & (lows > 0.0)
        half = np.where(at_high | at_low, 2.0 * width, 1.5 * spacing)
        lows = np.maximum(0.0, best - half)
        highs = best + half
        if np.all(highs - lows <= 2.0**-52 * top):
            break
    delta = np.cumsum(best[::-1])[::-1]
    objective = float((delta * a).sum() + (b / delta).sum())
    return tuple(delta), objective


def partition_min_objective(a, b):
    """Exact monotone-weights minimum by enumerating block partitions.

    The optimum of a separable convex objective under a non-increasing
    constraint is constant on blocks, each block at its pooled minimizer
    sqrt(sum b / sum a); enumerating the 2^(k-1) consecutive partitions and
    keeping the feasible ones recovers it exactly.
    """
    k = len(a)
    best = math.inf
    for mask in range(1 << (k - 1)):
        cuts = [0] + [j + 1 for j in range(k - 1) if mask >> j & 1] + [k]
        prev = math.inf
        total = 0.0
        feasible = True
        for lo, hi in zip(cuts, cuts[1:]):
            sa = math.fsum(a[lo:hi])
            sb = math.fsum(b[lo:hi])
            value = math.sqrt(sb / sa)
            if value > prev:
                feasible = False
                break
            prev = value
            total += 2.0 * math.sqrt(sa * sb)
        if feasible and total < best:
            best = total
    return best


def scan_bisect_root(f, start, steps_per_doubling=16, max_doublings=64):
    """Largest sign change of f above start: fine geometric scan + bisection."""
    factor = 2.0 ** (1.0 / steps_per_doubling)
    x = start
    fx = f(x)
    bracket = None
    for _ in range(max_doublings * steps_per_doubling):
        nxt = x * factor
        fn = f(nxt)
        if fx <= 0.0 < fn:
            bracket = (x, nxt)
        x, fx = nxt, fn
    if bracket is None:
        raise AssertionError("scan found no sign change")
    lo, hi = bracket
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def full_scan_root(f, start, limit):
    """Forward reference for the bound solvers' bracket-and-bisect root.

    Every probe start * 2**(j/16) up to the first one past
    max(start, limit) * 2**(1/16) (capped at the largest float) is
    evaluated from start upward, and the last pair with
    f(left) <= 0 < f(right) is bisected to relative width 1e-13.  Returns
    (root, probes, bracket, bisections); root and bracket are None when no
    pair brackets, and bisections counts the evaluations after the scan.
    """
    factor = 2.0 ** (1.0 / 16)
    end = min(max(start, limit) * factor, 1.7976931348623157e308)
    probes = [start]
    while probes[-1] <= end:
        probes.append(start * factor ** len(probes))
    values = [f(x) for x in probes]
    bracket = None
    for j in range(len(probes) - 1):
        if values[j] <= 0.0 < values[j + 1]:
            bracket = (probes[j], probes[j + 1])
    if bracket is None:
        return None, probes, None, 0
    lo, hi = bracket
    bisections = 0
    while bisections < 200 and hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        bisections += 1
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), probes, bracket, bisections


def _euclidean_coefficient(n, l):
    return (6 * l * l + 3 * n * l - 14 * l + 8 - 3 * n) / 3.0


def cor11_weyl_limit(n, l):
    """Exact large-k limit of cor11's lhs/rhs on a Weyl spectrum lam_i = i^p.

    With p = 2(l-1)/n and the candidate lam_(k+1), both sums become Beta
    integrals as k grows, so the ratio tends to the rational
    [1 - 2/(p+1) + 1/(2p+1)] / (C [1/(p+1) - 1/(2p+1)]), where
    C = 4(l-1)(3n+6l-8) / (3n^2) is the corollary's constant.
    """
    p = Fraction(2 * (l - 1), n)
    big_c = Fraction(4 * (l - 1) * (3 * n + 6 * l - 8), 3 * n * n)
    return (1 - 2 / (p + 1) + 1 / (2 * p + 1)) / (big_c * (1 / (p + 1) - 1 / (2 * p + 1)))


def yang_quadratic_bound(lams, k, n, l):
    """Largest root of the gap quadratic, straight from the abc formula."""
    coeff = _euclidean_coefficient(n, l)
    c = 4.0 * coeff / (n * n)
    s1 = math.fsum(lams[:k])
    s2 = math.fsum(v * v for v in lams[:k])
    qa = float(k)
    qb = (2.0 + c) * s1
    qc = (1.0 + c) * s2
    disc = qb * qb - 4.0 * qa * qc
    return (qb + math.sqrt(disc)) / (2.0 * qa)


def thm11_sides(lams, n, l, k, candidate, delta):
    """lhs and rhs of the weighted Euclidean inequality, coded literally.

    Each term multiplies its factors left to right in the order the formula
    writes them, so the package's evaluator must agree bit for bit.
    """
    coeff = _euclidean_coefficient(n, l)
    gaps = [candidate - v for v in lams[:k]]
    lhs = n * math.fsum(g * g for g in gaps)
    rhs = math.fsum(
        delta[i] * gaps[i] * gaps[i] * coeff * lams[i] ** ((l - 2) / (l - 1)) for i in range(k)
    ) + math.fsum(gaps[i] / delta[i] * lams[i] ** (1 / (l - 1)) for i in range(k))
    return lhs, rhs


def eq112_sides(lams, n, l, k, candidate):
    """lhs and rhs of the square-root Euclidean form, coded literally."""
    coeff = _euclidean_coefficient(n, l)
    gaps = [candidate - v for v in lams[:k]]
    lhs = n * math.fsum(g * g for g in gaps)
    heavy = math.fsum(gaps[i] * gaps[i] * lams[i] ** ((l - 2) / (l - 1)) for i in range(k))
    light = math.fsum(gaps[i] * lams[i] ** (1 / (l - 1)) for i in range(k))
    return lhs, 2.0 * math.sqrt(coeff) * math.sqrt(heavy) * math.sqrt(light)


def l2_rhs_linear_gap(n, lams, k, candidate, delta):
    """Right side of the order-2 weighted inequality, coded literally."""
    coeff = n + 4.0 / 3.0
    gaps = [candidate - v for v in lams[:k]]
    first = math.fsum(delta[i] * gaps[i] ** 2 for i in range(k))
    second = math.fsum(gaps[i] / delta[i] * lams[i] for i in range(k))
    return coeff * first + second


def sphere_a_coefficients(l, n):
    """Clipped interior coefficients from the symbolic polynomial route."""
    coeffs = phi_symbolic(l - 1, n)
    out = []
    for j in range(1, l - 1):
        a_j = int((-1) ** (l - 1 - j) * coeffs[j])
        out.append(a_j)
    return out


def sphere_s_value(lam, n, l, a_coeffs):
    """The spherical curvature term from the clipped interior coefficients."""
    root = lam ** (1.0 / (l - 1))
    h = float((-1) ** l * (n - 2) ** (l - 2))
    h += math.fsum(max(a_coeffs[j - 1], 0) * lam ** (j / (l - 1)) for j in range(1, l - 1))
    return lam * (1.0 - 1.0 / (root - (n - 2))) + h


def thm12_sides(lams, n, l, k, candidate, delta):
    """lhs and rhs of the weighted spherical inequality, coded literally."""
    a_coeffs = sphere_a_coefficients(l, n)
    root_pow = 1.0 / (l - 1)
    gaps = [candidate - v for v in lams[:k]]
    lhs = math.fsum(
        gaps[i] * gaps[i] * (2.0 + (n - 2) / (lams[i] ** root_pow - (n - 2))) for i in range(k)
    )
    rhs = math.fsum(
        gaps[i] * gaps[i] * delta[i] * sphere_s_value(lams[i], n, l, a_coeffs) for i in range(k)
    ) + math.fsum(
        gaps[i] / delta[i] * (lams[i] ** root_pow + (n - 2) ** 2 / 4.0) for i in range(k)
    )
    return lhs, rhs


def sphere_bound_oracle(lams, n, l, k):
    """Largest admissible candidate for the spherical inequality.

    Recomputes the weights, the curvature terms, and the inner monotone
    minimization (by partition enumeration) from scratch, then locates the
    largest root with the scan-and-bisect routine.
    """
    a_coeffs = sphere_a_coefficients(l, n)
    root_pow = 1.0 / (l - 1)
    kept = [v for v in lams[:k]]
    weights = [2.0 + (n - 2) / (v**root_pow - (n - 2)) for v in kept]
    s_vals = [sphere_s_value(v, n, l, a_coeffs) for v in kept]
    c_vals = [v**root_pow + (n - 2) ** 2 / 4.0 for v in kept]

    def excess(x):
        gaps = [x - v for v in kept]
        live = [i for i in range(len(kept)) if gaps[i] > 0.0]
        lhs = math.fsum(weights[i] * gaps[i] ** 2 for i in live)
        if not live:
            return -1.0
        a_terms = [gaps[i] ** 2 * s_vals[i] for i in live]
        b_terms = [gaps[i] * c_vals[i] for i in live]
        return lhs - partition_min_objective(a_terms, b_terms)

    return scan_bisect_root(excess, lams[k - 1])


def closed_sphere_eigenvalues(n, l, count):
    """The first count buckling eigenvalues of the closed unit sphere S^n.

    The degree-j spherical harmonics, C(n+j, j) - C(n+j-2, j-2) of them, are
    Laplace eigenfunctions with mu_j = j(j+n-1), so each is a buckling mode
    with Lambda = mu_j**(l-1).  The constants (j = 0) have a zero Laplacian
    and are not modes, so j starts at 1.  Every value is an integer.
    """
    values = []
    j = 0
    while len(values) < count:
        j += 1
        multiplicity = math.comb(n + j, j) - (math.comb(n + j - 2, j - 2) if j >= 2 else 0)
        values += [(j * (j + n - 1)) ** (l - 1)] * multiplicity
    return values[:count]


class InfeasibleSpectrumError(Exception):
    """The referee's rejection of a prefix, named like the package's error."""


class BracketError(Exception):
    """The referee found no sign change, named like the package's error."""


def _sharp_units(lams, l):
    # The package's Euclidean units of the last eigenvalue: the shift
    # 2 (l-1) w that brings it near 1, the prefix times 2**shift, and the
    # powers of the raw eigenvalues times 4**((l-2) w) and 4**w.
    shift = -2 * (l - 1) * round(math.frexp(lams[-1])[1] / (2 * (l - 1)))
    scaled = [math.ldexp(v, shift) for v in lams]
    heavy = [math.ldexp(v ** ((l - 2) / (l - 1)), (l - 2) * shift // (l - 1)) for v in lams]
    light = [math.ldexp(v ** (1 / (l - 1)), shift // (l - 1)) for v in lams]
    return shift, scaled, heavy, light


def _sharp_sums(lams, l):
    # x -> (sum g**2, sum g**2 h, sum g c) in those units, one fsum loop each.
    shift, scaled, heavy, light = _sharp_units(lams, l)

    def sums(x):
        gaps = [math.ldexp(x, shift) - v for v in scaled]
        squares = [g * g for g in gaps]
        return (
            math.fsum(squares),
            math.fsum(q * h for q, h in zip(squares, heavy)),
            math.fsum(g * c for g, c in zip(gaps, light)),
        )

    return sums


def sharp_shortfall_by_loop(lams, n, l):
    """x -> sum g**2 - 2 sqrt(coeff) / n sqrt(sum g**2 h) sqrt(sum g c) by the loop."""
    sums = _sharp_sums(lams, l)
    scale = 2.0 * math.sqrt(_euclidean_coefficient(n, l)) / n

    def shortfall(x):
        squares, heavy, light = sums(x)
        return squares - scale * math.sqrt(heavy) * math.sqrt(light)

    return shortfall


def sharp_bound_by_loop(lams, n, l):
    """The square-root bound after the whole prefix, every shortfall an fsum loop.

    It follows the package's sharp solver step by step, in the same units
    and the same operation order, so it must agree bit for bit: the purely
    relative check at the last eigenvalue, the cap that is the smaller of
    mean + C lam_k and the cor11 root (C = 4 coeff / n**2), and the forward
    scan of ``full_scan_root``.  It raises the two error classes above.
    """
    k = len(lams)
    coeff = _euclidean_coefficient(n, l)
    squares, heavy, light = _sharp_sums(lams, l)(lams[-1])
    lhs = n * squares
    rhs = 2.0 * math.sqrt(coeff) * math.sqrt(heavy) * math.sqrt(light)
    if not lhs - rhs <= 1e-9 * max(abs(lhs), abs(rhs)):
        raise InfeasibleSpectrumError(f"the square-root form fails at {lams[-1]}")
    big_c = 4.0 * coeff / n**2
    limit = math.fsum(lams) / k + big_c * lams[-1]
    shift, scaled, _, _ = _sharp_units(lams, l)
    linear = (2.0 + big_c) * math.fsum(scaled)
    constant = (1.0 + big_c) * math.fsum(v * v for v in scaled)
    disc = linear * linear - 4.0 * k * constant
    if disc >= 0.0:
        root = (linear + math.sqrt(disc)) / (2.0 * k)
        if root >= scaled[-1] * (1.0 - 1e-12):
            try:
                limit = min(limit, math.ldexp(max(root, scaled[-1]), -shift))
            except OverflowError:
                pass
    root, _, _, _ = full_scan_root(sharp_shortfall_by_loop(lams, n, l), lams[-1], limit)
    if root is None:
        raise BracketError(f"no sign change above {lams[-1]}")
    return root


def generalized_eigenpairs(a_mat, b_mat, count):
    """First ``count`` eigenpairs of A x = lambda B x, step by step.

    Jacobi-scale both matrices by B's diagonal, factor the scaled B by the
    pivot loop, form L^-1 A L^-T by two triangular solves, symmetrize it as
    0.5 * (R + R^T), solve it with LAPACK's syev, and back-transform at
    least two vectors.  Each vector is rescaled and its first component
    above 1e-12 of its largest is made positive.  Every step allocates
    fresh arrays and lets scipy check finiteness.
    """
    a_mat, b_mat = np.asarray(a_mat, dtype=float), np.asarray(b_mat, dtype=float)
    size = a_mat.shape[0]
    scale = 1.0 / np.sqrt(np.diagonal(b_mat).copy())
    jacobi = np.outer(scale, scale)
    a_scaled, b_scaled = a_mat * jacobi, b_mat * jacobi
    lower = np.zeros_like(b_scaled)
    for j in range(size):
        lower[j, j] = math.sqrt(b_scaled[j, j] - float(lower[j, :j] @ lower[j, :j]))
        lower[j + 1 :, j] = (b_scaled[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    half = scipy.linalg.solve_triangular(lower, a_scaled, lower=True)
    reduced = scipy.linalg.solve_triangular(lower, half.T, lower=True)
    values, transformed = scipy.linalg.eigh(0.5 * (reduced + reduced.T), driver="ev")
    kept = transformed[:, : max(count, 2)]
    back = scipy.linalg.solve_triangular(lower, kept, trans="T", lower=True)[:, :count]
    vectors = np.ascontiguousarray(back * scale[:, None])
    for j in range(count):
        column = vectors[:, j]
        lead = np.nonzero(np.abs(column) > 1e-12 * np.abs(column).max())[0][0]
        if column[lead] < 0.0:
            vectors[:, j] = -column
    return np.ascontiguousarray(values[:count]), vectors


def interval_order2_eigenvalue(index):
    """1D clamped buckling eigenvalues from the frequency equation.

    2(1 - cos mu) - mu sin mu factors as 2 sin(mu/2) (2 sin(mu/2) -
    mu cos(mu/2)), so mu = 2 pi j or tan(mu/2) = mu/2; the eigenvalue is
    the index-th smallest mu squared.
    """
    mus = [2.0 * math.pi * j for j in range(1, index + 1)]
    for j in range(1, index + 1):
        x = brentq(
            lambda x: math.tan(x) - x,
            j * math.pi + 1e-9,
            j * math.pi + math.pi / 2 - 1e-6,
            xtol=1e-13,
        )
        mus.append(2.0 * x)
    return sorted(mus)[index - 1] ** 2


def _clamped_conditions(l, odd, t):
    # The l x l matrix of u^(p)(1/2), p = 0..l-1 (rows), over the real
    # solutions of one parity at Lambda = t**(2(l-1)) (columns).
    half = mpmath.mpf(1) / 2
    rows = [[mpmath.mpf(0)] * l for _ in range(l)]
    rows[0][0], rows[1][0] = (half, 1) if odd else (1, 0)  # x or 1
    trig, power = (mpmath.sin, 1) if odd else (mpmath.cos, 0)
    column = 1
    for j in range(l - 1):
        if 2 * j > l - 1:
            continue  # -conj of the root l - 1 - j: the same columns
        kappa = t * mpmath.expjpi(mpmath.mpf(j) / (l - 1))
        values = [kappa ** (p - power) * trig(kappa * half + p * mpmath.pi / 2) for p in range(l)]
        parts = (mpmath.re,) if 2 * j in (0, l - 1) else (mpmath.re, mpmath.im)
        for part in parts:
            for p in range(l):
                rows[p][column] = part(values[p])
            column += 1
    return mpmath.matrix(rows)


@lru_cache
def ode_interval_eigenvalues(l, count):
    """The first ``count`` eigenvalues of the clamped ODE on [-1/2, 1/2].

    (-1)**l u^(2l) = -Lambda u'' with u = u' = ... = u^(l-1) = 0 at both
    ends.  With Lambda = t**(2(l-1)) its solutions are 1, x, cos(kappa x)
    and sin(kappa x), where kappa runs over t exp(i pi j / (l-1)), j < l - 1.
    Even eigenfunctions combine 1 and the cosines, odd ones x and the
    sin(kappa x) / kappa, so each parity gives one l x l determinant of the
    clamped conditions at x = 1/2.  Both kinds of column are even in kappa and
    real where kappa is real or imaginary; a kappa off the axes stands for its
    conjugate pair, whose span the real and imaginary parts of its column give.
    Each determinant is scanned for sign changes on a grid in t of step 1/2,
    fine enough to separate its roots (about 2 pi apart in t for l <= 5), and
    every change is bisected to 1e-22 relative in 40-digit arithmetic.
    """
    step = mpmath.mpf(1) / 2
    roots = []
    with mpmath.workdps(40):

        def sign(odd, t):
            return mpmath.sign(mpmath.det(_clamped_conditions(l, odd, t)))

        t = step
        signs = [sign(False, t), sign(True, t)]
        while len(roots) < count:
            for odd in (False, True):
                lo, hi = t, t + step
                below = signs[odd]
                signs[odd] = sign(odd, hi)
                if signs[odd] == below:
                    continue
                while hi - lo > hi * mpmath.mpf(10) ** -22:
                    mid = (lo + hi) / 2
                    if sign(odd, mid) == below:
                        lo = mid
                    else:
                        hi = mid
                roots.append(float(((lo + hi) / 2) ** (2 * (l - 1))))
            t += step
    return tuple(sorted(roots)[:count])
