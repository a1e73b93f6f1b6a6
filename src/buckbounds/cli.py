"""Command line front end: spectra, coefficient families, bounds, verification.

stdout carries data only and is byte-identical across runs with the same
arguments and input files; diagnostics go to stderr, one line each: an error
as ``error: <kind>: <message>`` and a warning that the warning filters let
through as ``warning: <message>``.  A warning that the filters turn into an
error (``python -W error``) ends the command as ``error: warning: <message>``
with exit 3.  Exit codes: 0 success, 1 input or file error, 2 usage error,
3 numerical failure or a warning raised as an error, 4 verification failure.
``_FAILURES`` is the one place that maps an error class to its kind and exit
code; an exception that no entry names is not caught.

numpy loads only for ``solve`` and ``verify``, and scipy only when they reach
the eigensolver: ``solve_buckling``, ``Domain`` and ``run_verification`` are
module attributes that the package resolves on first use.  The commands look
these and the ``next_bound_*`` solvers up by name, so they call whatever
those attributes hold at call time.  ``json`` loads only for ``--json``
output and ``fractions`` only for ``bound next --exact``.
"""

import argparse
import contextlib
import sys
import warnings

from .bounds import (
    _read_ascii,
    chain_bounds,
    euclidean_coefficient,
    eval_l2_priors,
    format_spectrum_csv,
    next_bound_cor11,  # the next_bound_* names are read by _cmd_bound_next
    next_bound_sharp,
    next_bound_sphere,
    parse_spectrum,
    read_spectrum,
)
from .errors import (
    BuckBoundsError,
    DomainViolationError,
    InfeasibleSpectrumError,
    InternalConsistencyError,
    InvalidParameterError,
    NumericalError,
    SpectrumFormatError,
)
from .polyrec import extract_a_coefficients, phi_polynomial

# The names the commands use from the numeric modules, which import numpy:
# the package's lazy layer resolves each on first use.
_NUMERIC = ("solve_buckling", "Domain", "run_verification")


def __getattr__(name):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
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
    if len(edges) == 1:
        edges *= dim  # one edge is every axis's
    if len(edges) != dim:
        raise InvalidParameterError(f"--domain got {len(edges)} edges for dim={dim}")
    return edges


@contextlib.contextmanager
def _any_int_length():
    # From Python 3.10.7 on, str() refuses an integer of more than
    # sys.get_int_max_str_digits() digits, 4,300 by default; earlier releases
    # have no limit and no setter.  Under the caps of phi and coeffs a
    # coefficient reaches about 5,700 digits, so their output lifts the limit
    # and only their output: parse_spectrum relies on it to refuse a huge
    # header cheaply, and dispatch also runs in-process.
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _print_json(data):
    import json

    print(json.dumps(data))


def _cmd_phi(args):
    poly = phi_polynomial(args.q, args.n)
    with _any_int_length():
        if args.json:
            _print_json(
                {
                    "schema": 1,
                    "q": args.q,
                    "n": args.n,
                    "degree": poly.degree,
                    "coefficients": list(poly.coefficients),
                }
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
    with _any_int_length():
        for j, (a, ap) in enumerate(zip(coeffs.a, coeffs.a_plus), start=1):
            print(f"a_{j} = {a}  a_{j}+ = {ap}")
    return 0


def _cmd_solve(args):
    edges = _parse_edges(args.domain, args.dim)
    spectrum = _lazy("solve_buckling")(_lazy("Domain")(edges), args.l, args.degree, args.count)
    if args.json:
        _print_json(
            {
                "schema": 1,
                "n": spectrum.n,
                "l": spectrum.l,
                "m": spectrum.m,
                "domain": list(edges),
                "eigenvalues": list(spectrum.values),
            }
        )
    elif args.csv:
        sys.stdout.write(format_spectrum_csv(spectrum))
    else:
        for i, value in enumerate(spectrum.values, start=1):
            print(f"Lambda_{i} = {_num(value)}")
    return 0


def _exact_next_bound(spectrum, k, method):
    from fractions import Fraction

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
    print(_num(_lazy(f"next_bound_{args.method}")(spectrum, k)))
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
        _print_json(report.to_dict())
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
    p_solve.add_argument("--dim", type=int, choices=(1, 2, 3), required=True)
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
    p_verify.add_argument("--dim", type=int, choices=(2, 3), default=2)
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


# The one map from a failure to its diagnostic: the error classes, the kind in
# ``error: <kind>: <message>`` and the exit code.  The first entry that
# matches decides; a Warning reaches dispatch only when a filter raised it.
_FAILURES = (
    (InvalidParameterError, "usage", 2),
    ((SpectrumFormatError, DomainViolationError, InfeasibleSpectrumError, OSError), "input", 1),
    (NumericalError, "numerical", 3),
    (InternalConsistencyError, "internal", 3),
    (Warning, "warning", 3),
)


def dispatch(argv):
    """Run one subcommand and map failures to documented exit codes.

    Warnings go through the active filters as usual; one that is shown is
    printed as the single line ``warning: <message>``, and one that a filter
    turns into an error as ``error: warning: <message>``, with exit 3.
    """
    parser = build_parser()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            args = parser.parse_args(argv)
            return args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (BuckBoundsError, OSError, Warning) as exc:
        for classes, kind, code in _FAILURES:
            if isinstance(exc, classes):
                print(f"error: {kind}: {exc}", file=sys.stderr)
                return code
        raise


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main():
    sys.exit(dispatch(sys.argv[1:]))
