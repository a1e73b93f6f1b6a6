"""Command line front end: spectra, coefficient families, bounds, verification.

stdout carries data only and is byte-identical across runs with the same
arguments and input files; diagnostics go to stderr as a single line
``error: <kind>: <message>``.  Exit codes: 0 success, 1 input or file error,
2 usage error, 3 numerical failure, 4 verification failure.

numpy and scipy load only for ``solve`` and ``verify``: ``solve_buckling``,
``Domain`` and ``run_verification`` are module attributes resolved on first
use, and the commands call whatever those attributes hold at call time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from fractions import Fraction

from .bounds import (
    _read_ascii,
    chain_bounds,
    euclidean_coefficient,
    eval_l2_priors,
    format_spectrum_csv,
    next_bound_cor11,
    next_bound_sharp,
    next_bound_sphere,
    parse_spectrum,
    read_spectrum,
)
from .errors import (
    DomainViolationError,
    InfeasibleSpectrumError,
    InternalConsistencyError,
    InvalidParameterError,
    NumericalError,
    SpectrumFormatError,
)
from .polyrec import extract_a_coefficients, phi_polynomial

# Names of the numeric modules, which import numpy, resolved on first use.
_LAZY = {"solve_buckling": "eigen", "Domain": "galerkin", "run_verification": "verify"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


def _lazy(name):
    """The current value of the module attribute ``name``."""
    return getattr(sys.modules[__name__], name)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidParameterError(message)


def _num(x):
    return f"{float(x):.13g}"


def _parse_edges(text, dim):
    if text is None:
        return (1.0,) * dim
    parts = [p.strip() for p in text.split(",")]
    try:
        edges = tuple(float(p) for p in parts)
    except ValueError:
        raise InvalidParameterError(
            f"--domain expects numbers separated by a comma, got {text!r}"
        ) from None
    if dim == 1 and len(edges) == 1:
        return edges
    if dim == 2 and len(edges) == 1:
        return (edges[0], edges[0])
    if dim == 2 and len(edges) == 2:
        return edges
    raise InvalidParameterError(f"--domain got {len(edges)} edges for dim={dim}")


def _cmd_phi(args):
    poly = phi_polynomial(args.q, args.n)
    if args.json:
        print(
            json.dumps(
                {
                    "schema": 1,
                    "q": args.q,
                    "n": args.n,
                    "degree": poly.degree,
                    "coefficients": list(poly.coefficients),
                }
            )
        )
    elif args.exact:
        print(" ".join(str(c) for c in poly.coefficients))
    else:
        print(poly)
    return 0


def _cmd_coeffs(args):
    coeffs = extract_a_coefficients(args.l, args.n)
    print(f"l = {args.l}  n = {args.n}")
    if not coeffs.a:
        print("no interior coefficients at l = 2")
    for j, (a, ap) in enumerate(zip(coeffs.a, coeffs.a_plus), start=1):
        print(f"a_{j} = {a}  a_{j}+ = {ap}")
    return 0


def _cmd_solve(args):
    edges = _parse_edges(args.domain, args.dim)
    spectrum = _lazy("solve_buckling")(_lazy("Domain")(edges), args.l, args.degree, args.count)
    if args.json:
        print(
            json.dumps(
                {
                    "schema": 1,
                    "n": spectrum.n,
                    "l": spectrum.l,
                    "m": spectrum.m,
                    "domain": list(edges),
                    "eigenvalues": list(spectrum.values),
                }
            )
        )
    elif args.csv:
        sys.stdout.write(format_spectrum_csv(spectrum))
    else:
        for i, value in enumerate(spectrum.values, start=1):
            print(f"Lambda_{i} = {_num(value)}")
    return 0


def _exact_next_bound(spectrum, k, method):
    if method not in ("cor11", "sharp") or k != 1:
        raise InvalidParameterError("--exact is only available for k=1 with method cor11 or sharp")
    coeff = euclidean_coefficient(spectrum.n, spectrum.l)
    lam = Fraction(spectrum.values[0])
    return lam * (1 + 4 * coeff / (spectrum.n * spectrum.n))


def _read_spectrum_args(args):
    if (args.n is None) != (args.l is None):
        raise InvalidParameterError("--n and --l must be given together")
    text = _read_ascii(args.spectrum)
    has_header = text.lstrip().startswith("#")
    if args.n is None:
        return parse_spectrum(text)
    if not has_header:
        text = f"# n={args.n} l={args.l}\n" + text
    spectrum = parse_spectrum(text)
    if (spectrum.n, spectrum.l) != (args.n, args.l):
        raise SpectrumFormatError(
            f"header says n={spectrum.n} l={spectrum.l}, flags say n={args.n} l={args.l}"
        )
    return spectrum


def _cmd_bound_next(args):
    spectrum = _read_spectrum_args(args)
    k = args.k if args.k is not None else spectrum.k
    if args.exact:
        print(_exact_next_bound(spectrum, k, args.method))
        return 0
    solver = {
        "cor11": next_bound_cor11,
        "sharp": next_bound_sharp,
        "sphere": next_bound_sphere,
    }[args.method]
    print(_num(solver(spectrum, k)))
    return 0


def _cmd_bound_chain(args):
    values = chain_bounds(args.lambda1, args.count, args.n, args.l, args.method)
    for value in values:
        print(_num(value))
    return 0


def _cmd_verify(args):
    edges = _parse_edges(args.domain, args.dim)
    report = _lazy("run_verification")(_lazy("Domain")(edges), args.l, args.degree, args.kmax)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(
            f"domain = {'x'.join(_num(e) for e in report.domain.edges)}  "
            f"l = {report.l}  m = {report.m}  count = {report.count}"
        )
        print("theorem checks:")
        for check in report.checks:
            r = check.report
            print(
                f"  k={r.k} {r.method}: lhs = {_num(r.lhs)}  rhs = {_num(r.rhs)}  "
                f"residual = {_num(r.residual)}  {check.verdict}"
            )
        print("lemma rows:")
        for row in report.lemma_rows:
            print(
                f"  i={row.i} k={row.k}: value = {_num(row.value)}  "
                f"bound = {_num(row.bound)}  margin = {_num(row.margin)}  "
                f"{'ok' if row.passed else 'violated'}"
            )
        print("convergence:")
        for m_value, row in zip(report.convergence.m_values, report.convergence.eigenvalues):
            print(f"  m={m_value}: " + "  ".join(_num(v) for v in row))
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 4


def _cmd_compare_l2(args):
    spectrum = read_spectrum(args.spectrum)
    reports = eval_l2_priors(spectrum, spectrum.k, args.candidate, args.delta)
    for report in reports:
        print(
            f"{report.method}: lhs = {_num(report.lhs)}  rhs = {_num(report.rhs)}  "
            f"residual = {_num(report.residual)}  "
            f"satisfied = {'yes' if report.satisfied else 'no'}"
        )
    return 0


def build_parser():
    parser = _Parser(prog="buckbounds", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_phi = sub.add_parser("phi", help="print a polynomial family member")
    p_phi.add_argument("--q", type=int, required=True)
    p_phi.add_argument("--n", type=int, required=True)
    group = p_phi.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--exact", action="store_true")
    p_phi.set_defaults(func=_cmd_phi)

    p_coeffs = sub.add_parser("coeffs", help="print interior coefficients and their clips")
    p_coeffs.add_argument("--l", type=int, required=True)
    p_coeffs.add_argument("--n", type=int, required=True)
    p_coeffs.set_defaults(func=_cmd_coeffs)

    p_solve = sub.add_parser("solve", help="compute a buckling spectrum")
    p_solve.add_argument("--dim", type=int, choices=(1, 2), required=True)
    p_solve.add_argument("--l", type=int, required=True)
    p_solve.add_argument("--degree", type=int, required=True)
    p_solve.add_argument("--count", type=int, required=True)
    p_solve.add_argument("--domain", default=None)
    group = p_solve.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--csv", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_bound = sub.add_parser("bound", help="bound the next eigenvalue")
    bound_sub = p_bound.add_subparsers(dest="bound_command", required=True)

    p_next = bound_sub.add_parser("next", help="bound the eigenvalue after the first k")
    p_next.add_argument("--method", choices=("cor11", "sharp", "sphere"), required=True)
    p_next.add_argument("--spectrum", required=True)
    p_next.add_argument("--n", type=int, default=None)
    p_next.add_argument("--l", type=int, default=None)
    p_next.add_argument("--k", type=int, default=None)
    p_next.add_argument("--exact", action="store_true")
    p_next.set_defaults(func=_cmd_bound_next)

    p_chain = bound_sub.add_parser(
        "chain", help="iterate a next-bound solver on its own bounds from one eigenvalue"
    )
    p_chain.add_argument("--lambda1", type=float, required=True)
    p_chain.add_argument("--count", type=int, required=True)
    p_chain.add_argument("--n", type=int, required=True)
    p_chain.add_argument("--l", type=int, required=True)
    p_chain.add_argument("--method", choices=("cor11", "sharp"), required=True)
    p_chain.set_defaults(func=_cmd_bound_chain)

    p_verify = sub.add_parser("verify", help="run the verification harness")
    p_verify.add_argument("--dim", type=int, choices=(2,), default=2)
    p_verify.add_argument("--l", type=int, required=True)
    p_verify.add_argument("--degree", type=int, required=True)
    p_verify.add_argument("--kmax", type=int, required=True)
    p_verify.add_argument("--domain", default=None)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_compare = sub.add_parser("compare-l2", help="score the earlier order-2 inequalities")
    p_compare.add_argument("--spectrum", required=True)
    p_compare.add_argument("--candidate", type=float, required=True)
    p_compare.add_argument("--delta", type=float, default=1.0)
    p_compare.set_defaults(func=_cmd_compare_l2)

    return parser


def dispatch(argv):
    """Run one subcommand and map failures to documented exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except InvalidParameterError as exc:
        _emit("usage", exc)
        return 2
    except (SpectrumFormatError, DomainViolationError, InfeasibleSpectrumError) as exc:
        _emit("input", exc)
        return 1
    except OSError as exc:
        _emit("input", exc)
        return 1
    except NumericalError as exc:
        _emit("numerical", exc)
        return 3
    except InternalConsistencyError as exc:
        _emit("internal", exc)
        return 3


def _emit(kind, exc):
    print(f"error: {kind}: {exc}", file=sys.stderr)


def main():
    sys.exit(dispatch(sys.argv[1:]))
