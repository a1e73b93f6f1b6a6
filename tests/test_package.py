import ast
import importlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import buckbounds

# Every public name of the package, by the module that defines it.
PUBLIC_NAMES = {
    "bounds": (
        "BoundReport",
        "DeltaSequence",
        "Spectrum",
        "chain_bounds",
        "delta_objective",
        "euclidean_coefficient",
        "eval_cor11",
        "eval_eq112",
        "eval_l2_priors",
        "eval_thm11",
        "eval_thm12",
        "format_spectrum_csv",
        "next_bound_cor11",
        "next_bound_sharp",
        "next_bound_sphere",
        "optimize_delta",
        "parse_spectrum",
        "read_spectrum",
        "thm11_optimal_delta",
    ),
    "eigen": ("EigenSolution", "cholesky_spd", "solve_buckling", "solve_generalized"),
    "errors": (
        "BracketError",
        "BuckBoundsError",
        "ConvergenceError",
        "DomainViolationError",
        "InfeasibleSpectrumError",
        "InternalConsistencyError",
        "InvalidParameterError",
        "NotPositiveDefiniteError",
        "NumericalError",
        "SpectrumFormatError",
    ),
    "galerkin": (
        "Basis1D",
        "Domain",
        "OperatorForms",
        "assemble_forms",
        "build_basis_1d",
        "derivative_integral_table",
        "export_forms",
        "load_forms",
    ),
    "polyrec": (
        "ACoefficients",
        "Polynomial",
        "extract_a_coefficients",
        "fg_polynomials",
        "h_term",
        "phi_polynomial",
        "s_term",
    ),
    "verify": (
        "ConvergenceTable",
        "LemmaRow",
        "TheoremCheck",
        "VerificationReport",
        "check_lemma21",
        "check_theorem11",
        "convergence_study",
        "rayleigh_quantities",
        "run_verification",
    ),
}


def test_public_names_resolve_to_their_definitions():
    assert sum(len(names) for names in PUBLIC_NAMES.values()) == 57
    for module_name, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"buckbounds.{module_name}")
        for name in names:
            assert getattr(buckbounds, name) is getattr(module, name), name
            assert name in vars(buckbounds), name
            assert name in dir(buckbounds)
    assert buckbounds.__version__ == "0.1.0"


# Prints every public name that a star import leaves unbound, in a fresh
# interpreter, so that no earlier lookup has resolved a lazy name already.
STAR_PROBE = """
import json, sys
from buckbounds import *
print(json.dumps([name for name in json.loads(sys.argv[1]) if name not in globals()]))
"""


def test_star_import_binds_every_public_name():
    names = sorted(name for names in PUBLIC_NAMES.values() for name in names)
    assert sorted(buckbounds.__all__) == names
    result = subprocess.run(
        [sys.executable, "-c", STAR_PROBE, json.dumps(names)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


# Modules in dependency order: a module imports only from modules before it.
# ``__init__`` serves every name and is exempt; the CLI reaches the numeric
# modules through ``importlib`` lookups, which are not import statements.
LAYERS = ("errors", "polyrec", "bounds", "galerkin", "eigen", "verify", "cli", "__main__")


def _relative_imports(tree):
    # The package modules each relative import statement reaches, at any depth.
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.lineno, node.module.split(".")[0]
            else:
                yield from ((node.lineno, alias.name) for alias in node.names)


def test_modules_import_only_earlier_layers():
    source = Path(buckbounds.__file__).parent
    modules = {path.stem: path for path in source.glob("*.py")}
    assert sorted(modules) == sorted(LAYERS + ("__init__",))
    for rank, name in enumerate(LAYERS):
        tree = ast.parse(modules[name].read_text(encoding="utf-8"))
        for line, target in _relative_imports(tree):
            assert target in LAYERS[:rank], f"{name}.py line {line} imports {target}"


def test_numeric_modules_do_not_import_polyrec():
    # the argument checks live in errors; polyrec's recursions serve the bounds
    source = Path(buckbounds.__file__).parent
    for name in ("galerkin", "eigen", "verify"):
        tree = ast.parse((source / f"{name}.py").read_text(encoding="utf-8"))
        targets = {target for _, target in _relative_imports(tree)}
        assert "polyrec" not in targets, f"{name}.py imports polyrec"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        buckbounds.no_such_name
    from buckbounds import cli

    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


# Runs light subcommands, then a `solve` that ends at an input error, then
# imports every numeric module, then solves, all in one fresh interpreter,
# and reports the exit codes and which numeric packages were loaded after
# each stage.  The solve path does not import ``verify``, so the lookup after
# the failed solve reaches it only through the package's ``__getattr__``.
IMPORT_PROBE = """
import contextlib, io, json, sys
import buckbounds
from buckbounds import cli

def loaded():
    return sorted({"numpy", "scipy"} & set(sys.modules))

runs = json.loads(sys.argv[1])
solve = ["solve", "--dim", "1", "--l", "2", "--degree", "1", "--count"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.dispatch(argv) for argv in runs]
    light = loaded()
    unsolved = cli.dispatch(solve + ["2"])
    verify = "buckbounds.verify" in sys.modules, buckbounds.verify.__name__
    unverified = cli.dispatch(["verify", "--l", "2", "--degree", "2", "--kmax", "9"])
    import buckbounds.eigen, buckbounds.galerkin
    buckbounds.solve_buckling
    imported = loaded()
    solved = cli.dispatch(solve + ["1"])
after_solve = loaded()
import scipy.linalg
from buckbounds import eigen
drivers = [eigen.eigh is scipy.linalg.eigh, eigen.solve_triangular is scipy.linalg.solve_triangular]
print(json.dumps({"codes": codes, "light": light, "unsolved": unsolved, "verify": verify,
                  "unverified": unverified, "imported": imported, "solved": solved,
                  "after_solve": after_solve, "drivers": drivers}))
"""


def test_light_subcommands_never_load_numpy(tmp_path):
    one = tmp_path / "one.csv"
    one.write_text("# n=2 l=2\n1.0\n", encoding="ascii")
    sphere = tmp_path / "sphere.csv"
    sphere.write_text("# n=3 l=3\n9.0\n16.0\n", encoding="ascii")
    two = tmp_path / "two.csv"
    two.write_text("# n=2 l=2\n1.0\n2.0\n", encoding="ascii")
    runs = [
        ["phi", "--q", "2", "--n", "4"],
        ["coeffs", "--l", "4", "--n", "2"],
        ["bound", "next", "--method", "cor11", "--spectrum", str(one)],
        ["bound", "next", "--method", "sharp", "--spectrum", str(one)],
        ["bound", "next", "--method", "sphere", "--spectrum", str(sphere)],
        ["bound", "chain", "--lambda1", "1.0", "--count", "4", "--n", "2", "--l", "3", "--method", "sharp"],
        ["compare-l2", "--spectrum", str(two), "--candidate", "4.0"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(runs)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["codes"] == [0] * len(runs)
    assert report["light"] == []
    # count 2 exceeds the basis size 1: a usage error before any solve
    assert report["unsolved"] == 2
    assert report["verify"] == [False, "buckbounds.verify"]
    # k_max = 9 needs 10 eigenvalues of a 4-function basis: refused unsolved
    assert report["unverified"] == 2
    # the numeric modules need numpy alone; scipy loads at the first solve
    assert report["imported"] == ["numpy"]
    assert report["solved"] == 0
    assert report["after_solve"] == ["numpy", "scipy"]
    assert report["drivers"] == [True, True]


# The standard-library modules that the light subcommands do without: the
# records are not dataclasses (dataclasses loads inspect), the bound kernels
# read their coefficient as a float (fractions loads decimal), and json loads
# only for --json output.
HEAVY_STDLIB = ("dataclasses", "inspect", "fractions", "decimal", "json")

# Imports the package, then runs the light subcommands given as arguments
# (one per argument, its words separated by tabs), in a fresh interpreter
# that itself imports none of HEAVY_STDLIB, and prints with print() which of
# them each stage loaded and the exit codes.
STDLIB_PROBE = """
import contextlib, io, sys
heavy = sys.argv[1].split(",")
before = sorted(set(heavy) & set(sys.modules))
import buckbounds
package = sorted(set(heavy) & set(sys.modules))
from buckbounds import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.dispatch(argv.split("\\t")) for argv in sys.argv[2:]]
print(before)
print(package)
print(sorted(set(heavy) & set(sys.modules)))
print(codes)
"""


def test_light_subcommands_load_no_heavy_stdlib_module(tmp_path):
    two = tmp_path / "two.csv"
    two.write_text("# n=2 l=2\n1.0\n2.0\n", encoding="ascii")
    sphere = tmp_path / "sphere.csv"
    sphere.write_text("# n=3 l=3\n9.0\n16.0\n", encoding="ascii")
    runs = [
        ["phi", "--q", "3", "--n", "4"],
        ["coeffs", "--l", "4", "--n", "2"],
        ["bound", "next", "--method", "cor11", "--spectrum", str(two)],
        ["bound", "next", "--method", "sharp", "--spectrum", str(two), "--k", "1"],
        ["bound", "next", "--method", "sphere", "--spectrum", str(sphere)],
        ["bound", "chain", "--lambda1", "1.0", "--count", "4", "--n", "2", "--l", "3", "--method", "sharp"],
        ["bound", "chain", "--lambda1", "2.0", "--count", "4", "--n", "3", "--l", "2", "--method", "cor11"],
        ["compare-l2", "--spectrum", str(two), "--candidate", "4.0"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", STDLIB_PROBE, ",".join(HEAVY_STDLIB)]
        + ["\t".join(argv) for argv in runs],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    before, package, light, codes = result.stdout.splitlines()
    assert before == "[]"  # the probe's own imports load none of them
    assert package == "[]"
    assert light == "[]"
    assert codes == str([0] * len(runs))


# Every numeric argument check, as a call that puts one value where a number
# belongs.  Each value below is refused, where float() would raise on some
# and others convert to a float that the check refuses.
_SPECTRUM = buckbounds.Spectrum(values=(1.0, 2.0), n=2, l=2)
VALIDATOR_SITES = {
    "Domain": lambda v: buckbounds.Domain((v,)),
    "Spectrum": lambda v: buckbounds.Spectrum(values=(1.0, v), n=2, l=2),
    "Spectrum-values": lambda v: buckbounds.Spectrum(values=v, n=2, l=2),
    "DeltaSequence": lambda v: buckbounds.DeltaSequence((v,)),
    "optimize_delta": lambda v: buckbounds.optimize_delta([v], [1.0]),
    "chain_bounds": lambda v: buckbounds.chain_bounds(v, 3, 2, 2, "cor11"),
    "h_term": lambda v: buckbounds.h_term(2, 2, v),
    "s_term": lambda v: buckbounds.s_term(2, 2, v),
    "eval_cor11": lambda v: buckbounds.eval_cor11(_SPECTRUM, 1, v),
    "eval_l2_priors": lambda v: buckbounds.eval_l2_priors(_SPECTRUM, 1, 3.0, delta_scalar=v),
    "eval_thm11": lambda v: buckbounds.eval_thm11(_SPECTRUM, 2, 3.0, (v, v)),
    # v = 0 or -1 leaves the matrix asymmetric
    "cholesky_spd": lambda v: buckbounds.cholesky_spd([[1.0, v], [1.0, 1.0]]),
    "cholesky_spd-ragged": lambda v: buckbounds.cholesky_spd([[1.0, v], [1.0]]),
    # the interval's 1 x 1 B is 2/105, so no value here is B-normalized
    "rayleigh_quantities": lambda v: buckbounds.rayleigh_quantities(
        [v], buckbounds.assemble_forms(buckbounds.Domain.interval(), 2, 1)
    ),
}


# Every integer argument check shares one validator, so a sample of sites
# stands for them all.  2**63 and more in magnitude is refused before the
# value is formatted: str() of an integer past 4,300 digits raises ValueError,
# and so does repr() of a Fraction that holds one.
_UNIT_SQUARE = buckbounds.Domain((1.0, 1.0))
INTEGER_SITES = {
    "build_basis_1d-m": lambda v: buckbounds.build_basis_1d(2, v),
    "solve_buckling-count": lambda v: buckbounds.solve_buckling(_UNIT_SQUARE, 2, 2, v),
    "next_bound_cor11-k": lambda v: buckbounds.next_bound_cor11(_SPECTRUM, v),
    "check_theorem11-k_max": lambda v: buckbounds.check_theorem11(_SPECTRUM, v),
    "derivative_integral_table-order": lambda v: buckbounds.derivative_integral_table(
        buckbounds.build_basis_1d(2, 2), (v,)
    ),
    "Spectrum-n": lambda v: buckbounds.Spectrum(values=(1.0,), n=v, l=2),
    "run_verification-m": lambda v: buckbounds.run_verification(_UNIT_SQUARE, 2, v, 1),
    "phi_polynomial-q": lambda v: buckbounds.phi_polynomial(v, 2),
}


@pytest.mark.parametrize(
    "value",
    [True, 2.5, 10**5000, -(10**5000), Fraction(10**5000)],
    ids=["True", "2.5", "+1e5000", "-1e5000", "Fraction1e5000"],
)
@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_checks_refuse_every_bad_integer_as_invalid(site, value):
    with pytest.raises(buckbounds.InvalidParameterError):
        INTEGER_SITES[site](value)


# Refusals whose message shows the refused value: its repr where one can be
# built, and its type where repr raises.
UNPRINTABLE_SITES = {
    "Spectrum-provenance": (
        lambda: buckbounds.Spectrum(values=(1.0,), n=2, l=2, provenance=10**5000),
        "int",
    ),
    "chain_bounds-method": (lambda: buckbounds.chain_bounds(1.0, 3, 2, 2, 10**5000), "int"),
    "Polynomial-coefficient": (lambda: buckbounds.Polynomial((Fraction(10**5000),)), "Fraction"),
}


@pytest.mark.parametrize("site", sorted(UNPRINTABLE_SITES))
def test_refused_value_without_a_repr_is_named_by_its_type(site):
    call, kind = UNPRINTABLE_SITES[site]
    message = f"got a value of type {kind} that cannot be printed$"
    with pytest.raises(buckbounds.InvalidParameterError, match=message):
        call()


def test_integer_checks_stop_at_2_to_the_63():
    assert buckbounds.Spectrum(values=(1.0,), n=2**63 - 1, l=2).n == 2**63 - 1
    for n in (2**63, -(2**63)):
        with pytest.raises(buckbounds.InvalidParameterError, match=r"^n must be below 2\*\*63"):
            buckbounds.Spectrum(values=(1.0,), n=n, l=2)
    with pytest.raises(buckbounds.InvalidParameterError, match=r"^n must be >= 1, got -9223"):
        buckbounds.Spectrum(values=(1.0,), n=1 - 2**63, l=2)


@pytest.mark.parametrize(
    "value",
    ["x", None, 10**400, math.nan, math.inf, 0, -1.0],
    ids=["text", "None", "1e400", "nan", "inf", "0", "-1.0"],
)
@pytest.mark.parametrize("site", sorted(VALIDATOR_SITES))
def test_validators_refuse_every_bad_number_as_invalid(site, value):
    with pytest.raises(buckbounds.InvalidParameterError):
        VALIDATOR_SITES[site](value)


# Every check of a sequence of positive numbers, as a call that puts one
# sequence where it belongs.  A str or bytes iterates as characters, which
# float() reads as digits, or as byte values: "11" would be (1.0, 1.0) and
# b"11" (49.0, 49.0), each a valid sequence at every site.
SEQUENCE_SITES = {
    "Domain": lambda v: buckbounds.Domain(v),
    "Spectrum": lambda v: buckbounds.Spectrum(values=v, n=2, l=2),
    "DeltaSequence": lambda v: buckbounds.DeltaSequence(v),
    "eval_thm11-delta": lambda v: buckbounds.eval_thm11(_SPECTRUM, 2, 3.0, v),
    "optimize_delta-a": lambda v: buckbounds.optimize_delta(v, (1.0, 1.0)),
    "optimize_delta-b": lambda v: buckbounds.optimize_delta((1.0, 1.0), v),
    "delta_objective-delta": lambda v: buckbounds.delta_objective(v, (1.0, 1.0), (1.0, 1.0)),
    "delta_objective-a": lambda v: buckbounds.delta_objective((1.0, 1.0), v, (1.0, 1.0)),
    "delta_objective-b": lambda v: buckbounds.delta_objective((1.0, 1.0), (1.0, 1.0), v),
}


@pytest.mark.parametrize(
    "value", ["11", b"11", bytearray(b"11")], ids=["str", "bytes", "bytearray"]
)
@pytest.mark.parametrize("site", sorted(SEQUENCE_SITES))
def test_sequence_checks_refuse_text(site, value):
    with pytest.raises(buckbounds.InvalidParameterError, match=" must be numbers, not a "):
        SEQUENCE_SITES[site](value)


def _lemma_spectrum(vectors, forms=None, count=1):
    # A computed interval spectrum of count values with the given vectors and
    # forms; the forms are the interval's at l=2, m=3 by default.
    if forms is None:
        forms = buckbounds.assemble_forms(buckbounds.Domain.interval(), 2, 3)
    values = tuple(40.0 + i for i in range(count))
    return buckbounds.Spectrum(values, 1, 2, "computed", vectors=vectors, forms=forms)


def _solved_vectors():
    # the single B-normalized eigenvector of the interval at l=2, m=3
    return buckbounds.solve_buckling(buckbounds.Domain.interval(), 2, 3, 1).vectors


# Malformed arguments that the package once let through to raise a bare
# TypeError, IndexError or AttributeError from inside it.
MALFORMED_SITES = {
    "check_lemma21-1d-vectors": lambda: buckbounds.check_lemma21(_lemma_spectrum(np.ones(3))),
    # the one column is B-normalized, so only the missing second one is wrong
    "check_lemma21-too-few-columns": lambda: buckbounds.check_lemma21(
        _lemma_spectrum(_solved_vectors(), count=2)
    ),
    "check_lemma21-str-vectors": lambda: buckbounds.check_lemma21(_lemma_spectrum("abc")),
    "check_lemma21-forms": lambda: buckbounds.check_lemma21(_lemma_spectrum(np.ones((3, 1)), "x")),
    "check_lemma21-solution": lambda: buckbounds.check_lemma21("x"),
    "rayleigh_quantities-forms": lambda: buckbounds.rayleigh_quantities(np.ones(3), "x"),
    "check_theorem11-spectrum": lambda: buckbounds.check_theorem11("x", 1),
    "next_bound_cor11-spectrum": lambda: buckbounds.next_bound_cor11("x", 1),
    "eval_l2_priors-spectrum": lambda: buckbounds.eval_l2_priors("x", 1, 3.0),
    "export_forms-forms": lambda: buckbounds.export_forms("x", os.devnull),
    "convergence_study-m_list": lambda: buckbounds.convergence_study(
        buckbounds.Domain.interval(), 2, None, 2
    ),
    "derivative_integral_table-None": lambda: buckbounds.derivative_integral_table(
        buckbounds.build_basis_1d(2, 2), None
    ),
    "derivative_integral_table-int": lambda: buckbounds.derivative_integral_table(
        buckbounds.build_basis_1d(2, 2), 2
    ),
    "OperatorForms-matrices": lambda: buckbounds.OperatorForms(
        buckbounds.Domain.interval(), 2, 2, None
    ),
}


@pytest.mark.parametrize("site", sorted(MALFORMED_SITES))
def test_malformed_arguments_are_refused_as_invalid(site):
    with pytest.raises(buckbounds.InvalidParameterError):
        MALFORMED_SITES[site]()


CODE_LINES_SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line counts

# a comment line does not


def f(x):
    """A function docstring."""
    text = """a string
    that is no docstring"""
    return (x,
            text)
'''


def test_code_line_counter_skips_blank_comment_and_docstring_lines(tmp_path):
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "sample.py").write_text(CODE_LINES_SAMPLE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    out = subprocess.run(
        [sys.executable, str(root / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert [line.split() for line in out] == [
        ["0", str(tmp_path / "empty.py")],
        ["6", str(tmp_path / "sample.py")],
        ["6", "total"],
    ]


def test_readme_quick_start_prints_its_comments(capsys):
    # the Quick start block runs as written, and each line it prints is the
    # `# ...` comment line that follows its print call
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start\n\n```python\n")[1].split("```")[0]
    exec(block, {})
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert len(expected) == block.count("print(") == 3
    assert capsys.readouterr().out.splitlines() == expected
