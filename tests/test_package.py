import ast
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize(
    "value",
    ["x", None, 10**400, math.nan, math.inf, 0, -1.0],
    ids=["text", "None", "1e400", "nan", "inf", "0", "-1.0"],
)
@pytest.mark.parametrize("site", sorted(VALIDATOR_SITES))
def test_validators_refuse_every_bad_number_as_invalid(site, value):
    with pytest.raises(buckbounds.InvalidParameterError):
        VALIDATOR_SITES[site](value)
