import contextlib
import json
import subprocess
import sys
import warnings

import pytest

from buckbounds import cli, phi_polynomial
from buckbounds.errors import (
    BracketError,
    BuckBoundsError,
    ConvergenceError,
    InternalConsistencyError,
)


@pytest.fixture()
def spectra(tmp_path):
    files = {}
    for name, text in {
        "one": "1.0\n",
        "two": "# n=2 l=2\n1.0\n2.0\n",
        "sphere": "# n=3 l=3\n9.0\n16.0\n",
        "wide": "# n=2 l=2\n1.0\n100.0\n",
        "jump": "# n=5 l=4\n30.0\n41.0\n",
    }.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text, encoding="ascii")
        files[name] = str(path)
    return files


def run_cli(argv, capsys):
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_text_output(capsys):
    code, out, err = run_cli(["phi", "--q", "2", "--n", "4"], capsys)
    assert (code, out, err) == (0, "t^2 - 9 t - 2\n", "")
    code, out, _ = run_cli(["phi", "--q", "3", "--n", "3"], capsys)
    assert (code, out) == (0, "t^3 - 19 t^2 + 19 t - 1\n")


def test_phi_exact_and_json(capsys):
    code, out, _ = run_cli(["phi", "--q", "2", "--n", "4", "--exact"], capsys)
    assert (code, out) == (0, "-2 -9 1\n")
    code, out, _ = run_cli(["phi", "--q", "2", "--n", "4", "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "schema": 1,
        "q": 2,
        "n": 4,
        "degree": 2,
        "coefficients": [-2, -9, 1],
    }


def test_phi_usage_error(capsys):
    code, out, err = run_cli(["phi", "--q", "0", "--n", "4"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: usage:")


def test_phi_and_coeffs_refuse_an_index_above_the_cap(capsys):
    # coeffs --l reads the family member of index l - 1
    for argv, message in (
        (["phi", "--q", "301", "--n", "3"], "q=301 exceeds the supported cap 300"),
        (["coeffs", "--l", "302", "--n", "3"], "l=302 exceeds the supported cap 301"),
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: usage: {message}\n"


def test_coeffs_output(capsys):
    code, out, _ = run_cli(["coeffs", "--l", "4", "--n", "2"], capsys)
    assert code == 0
    assert out == "l = 4  n = 2\na_1 = 16  a_1+ = 16\na_2 = 17  a_2+ = 17\n"
    code, out, _ = run_cli(["coeffs", "--l", "2", "--n", "5"], capsys)
    assert (code, out) == (0, "l = 2  n = 5\nno interior coefficients at l = 2\n")


# At the caps (index 300, n = 2**63 - 1) a coefficient has about 5,700
# digits, past the 4,300 that Python prints or parses by default.
BIG_N = 2**63 - 1


@contextlib.contextmanager
def digits_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_phi_prints_coefficients_of_any_length(capsys, monkeypatch):
    poly = phi_polynomial(300, BIG_N)
    assert max(abs(c) for c in poly.coefficients).bit_length() > 14_300  # > 4,300 digits
    # the three forms print the one polynomial, built once: 0.4 s a build
    monkeypatch.setattr(cli, "phi_polynomial", lambda q, n: poly)
    argv = ["phi", "--q", "300", "--n", str(BIG_N)]
    plain, exact, as_json = (run_cli(argv + flag, capsys) for flag in ([], ["--exact"], ["--json"]))
    assert {(code, err) for code, _, err in (plain, exact, as_json)} == {(0, "")}
    with digits_limit(0):
        assert plain[1] == f"{poly}\n"
        assert [int(word) for word in exact[1].split()] == list(poly.coefficients)
        assert json.loads(as_json[1])["coefficients"] == list(poly.coefficients)


def test_coeffs_prints_coefficients_of_any_length(capsys):
    code, out, err = run_cli(["coeffs", "--l", "301", "--n", str(BIG_N)], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 300
    assert lines[-1].startswith("a_299 = ")
    assert max(len(line) for line in lines) > 4300


def test_dispatch_restores_the_digits_limit(capsys):
    # coefficients of about 1,900 digits, past a limit of 1,000
    with digits_limit(1000):
        for argv in (["phi", "--q", "100", "--exact"], ["coeffs", "--l", "101"]):
            assert cli.dispatch(argv + ["--n", str(BIG_N)]) == 0
            assert sys.get_int_max_str_digits() == 1000
    capsys.readouterr()


def test_solve_text_output(capsys):
    argv = ["solve", "--dim", "1", "--l", "2", "--degree", "1", "--count", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (0, "Lambda_1 = 42\n")


def test_solve_csv_round_trips(capsys, tmp_path):
    argv = ["solve", "--dim", "1", "--l", "2", "--degree", "4", "--count", "2", "--csv"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.startswith("# n=1 l=2\n")
    from buckbounds import parse_spectrum

    back = parse_spectrum(out)
    assert back.k == 2
    assert back.values[0] == 39.501552810007574


def test_solve_json_schema(capsys):
    argv = [
        "solve",
        "--dim",
        "2",
        "--l",
        "2",
        "--degree",
        "3",
        "--count",
        "2",
        "--domain",
        "1,2",
        "--json",
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["n"] == 2
    assert data["l"] == 2
    assert data["m"] == 3
    assert data["domain"] == [1.0, 2.0]
    assert len(data["eigenvalues"]) == 2


def test_solve_rejects_bad_domain(capsys):
    argv = ["solve", "--dim", "1", "--l", "2", "--degree", "3", "--count", "1", "--domain", "1,2,3"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: usage:")
    argv[-1] = "1,x"
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    message = "--domain expects numbers separated by a comma, got '1,x'"
    assert err == f"error: usage: {message}\n"


def test_solve_on_a_box(capsys):
    argv = ["solve", "--dim", "3", "--l", "2", "--degree", "4", "--count", "4", "--json"]
    code, out, _ = run_cli(argv + ["--domain", "1.3,0.7,1.1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert (data["n"], data["m"], data["domain"]) == (3, 4, [1.3, 0.7, 1.1])
    # one edge is the cube, as is no --domain at all
    code, out, _ = run_cli(argv + ["--domain", "1"], capsys)
    assert code == 0
    cube = json.loads(out)
    assert cube["domain"] == [1.0, 1.0, 1.0]
    assert run_cli(argv, capsys)[1] == out
    values = cube["eigenvalues"]
    assert values[1] == pytest.approx(values[3], rel=1e-10)
    for edges in ("1,2", "1,2,3,4"):
        code, _, err = run_cli(argv + ["--domain", edges], capsys)
        assert code == 2 and err.startswith("error: usage: --domain got")


def test_solve_refuses_a_box_above_the_basis_cap(capsys):
    argv = ["solve", "--dim", "3", "--l", "2", "--degree", "9", "--count", "1"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: usage:") and "cap 576" in err
    # verify's ladder refuses it through galerkin's request check, before any solve
    argv = ["verify", "--dim", "3", "--l", "2", "--degree", "9", "--kmax", "1"]
    message = "error: usage: basis size m**dim = 729 exceeds the supported cap 576\n"
    assert run_cli(argv, capsys) == (2, "", message)


def test_solve_overflow_is_numerical(capsys):
    argv = ["solve", "--dim", "1", "--l", "2", "--degree", "3", "--count", "1", "--domain", "1e-150"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: numerical:") and err.count("\n") == 1


def test_solve_pivot_failure_is_numerical(capsys):
    # the unscaled A_1 of the unit square fails the pivot check at l=4, m=24,
    # after the warning for m above 16
    argv = ["solve", "--dim", "2", "--l", "4", "--degree", "24", "--count", "1"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    first, last = err.splitlines()
    assert first.startswith("warning: basis size m=24 is above 16")
    assert last.startswith("error: numerical: pivot")


def test_square_double_eigenvalue_prints_as_one_value():
    # solved one parity class at a time, the two values print alike; at m = 16
    # nothing warns, so -W error leaves the solve alone
    argv = ["solve", "--dim", "2", "--l", "2", "--degree", "16", "--count", "3"]
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "buckbounds", *argv],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    names, values = zip(*(line.split(" = ") for line in result.stdout.splitlines()))
    assert names == ("Lambda_1", "Lambda_2", "Lambda_3")
    assert values[1] == values[2]


def test_solve_overflowed_residual_check_is_numerical(capsys):
    argv = ["solve", "--dim", "2", "--l", "3", "--degree", "3", "--count", "1", "--domain", "1e200,1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: numerical:") and err.count("\n") == 1


def test_warning_is_one_stderr_line(capsys):
    # m = 17 is above the conditioning note: the solve warns and succeeds
    argv = ["solve", "--dim", "1", "--l", "2", "--degree", "17", "--count", "1"]
    result = subprocess.run(
        [sys.executable, "-m", "buckbounds", *argv], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout) == (0, "Lambda_1 = 39.47841760436\n")
    assert result.stderr.startswith("warning: basis size m=17 is above 16")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
    assert run_cli(argv, capsys) == (0, result.stdout, result.stderr)
    # the warning filters still decide whether it is shown or raised
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli(argv, capsys) == (0, result.stdout, "")


def test_warning_raised_as_error_is_one_error_line(capsys):
    # -W error turns the conditioning note into an exception, which ends the
    # command with one diagnostic line and exit 3, not a traceback
    argv = ["solve", "--dim", "1", "--l", "2", "--degree", "17", "--count", "1"]
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "buckbounds", *argv],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("error: warning: basis size m=17 is above 16")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv, capsys) == (3, "", result.stderr)


def test_solve_failure_exit_code(capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise ConvergenceError("stub failure")

    monkeypatch.setattr(cli, "solve_buckling", failing)
    argv = ["solve", "--dim", "2", "--l", "2", "--degree", "4", "--count", "1"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (3, "", "error: numerical: stub failure\n")


def test_bound_next_headerless_with_flags(capsys, spectra):
    argv = ["bound", "next", "--method", "cor11", "--spectrum", spectra["one"], "--n", "2", "--l", "2"]
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (0, "4.333333333333\n")


def test_bound_next_exact_rational(capsys, spectra):
    argv = [
        "bound",
        "next",
        "--method",
        "cor11",
        "--spectrum",
        spectra["one"],
        "--n",
        "2",
        "--l",
        "2",
        "--exact",
    ]
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (0, "13/3\n")


def test_bound_next_exact_needs_first_gap(capsys, spectra):
    argv = ["bound", "next", "--method", "cor11", "--spectrum", spectra["two"], "--exact"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: usage:")


def test_bound_next_header_flag_mismatch(capsys, spectra):
    argv = ["bound", "next", "--method", "cor11", "--spectrum", spectra["two"], "--n", "3", "--l", "2"]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error: input:")


def test_bound_next_flags_must_pair(capsys, spectra):
    argv = ["bound", "next", "--method", "cor11", "--spectrum", spectra["one"], "--n", "2"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2


def test_bound_next_headerless_needs_flags(capsys, spectra):
    argv = ["bound", "next", "--method", "cor11", "--spectrum", spectra["one"]]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error: input:")


def test_bound_next_sphere(capsys, spectra):
    argv = ["bound", "next", "--method", "sphere", "--spectrum", spectra["sphere"]]
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (0, "98.72673861575\n")


def test_bound_next_infeasible_input(capsys, spectra):
    argv = ["bound", "next", "--method", "cor11", "--spectrum", spectra["wide"]]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error: input:")


def test_bound_next_cor11_root_below_the_last_eigenvalue(capsys, tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("# n=7 l=2\n4.7\n5.0\n8.15\n", encoding="ascii")
    argv = ["bound", "next", "--method", "cor11", "--spectrum", str(path)]
    expected = (
        "error: input: the quadratic form fails at eigenvalue 3 = 8.15 "
        "(relative residual 0.0002053901706807994 above tolerance 1e-09)\n"
    )
    assert run_cli(argv, capsys) == (1, "", expected)


def test_bound_next_sharp_infeasible_input(capsys, spectra):
    argv = ["bound", "next", "--method", "sharp", "--spectrum", spectra["wide"]]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error: input:")


def test_bound_next_sharp_infeasible_long_prefix(capsys, tmp_path):
    path = tmp_path / "squares.csv"
    lines = ["# n=3 l=3"] + [repr(float(i * i + 10)) for i in range(1, 41)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    argv = ["bound", "next", "--method", "sharp", "--spectrum", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: input:")


def test_bound_next_sharp_infeasible_at_any_scale(capsys, tmp_path):
    # the check at the last eigenvalue is relative, so a tiny prefix is
    # rejected as infeasible (exit 1) like the same prefix at scale 1
    path = tmp_path / "far.csv"
    for scale in (1.0, 1e-14):
        path.write_text(f"# n=3 l=3\n{scale!r}\n{71.5 * scale!r}\n", encoding="ascii")
        argv = ["bound", "next", "--method", "sharp", "--spectrum", str(path)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), scale
        assert err.startswith("error: input:")


@pytest.mark.parametrize(
    "command",
    [["bound", "next", "--method", "cor11"], ["compare-l2", "--candidate", "4.0"]],
    ids=["bound-next", "compare-l2"],
)
def test_spectrum_header_with_a_huge_integer_is_an_input_error(capsys, tmp_path, command):
    # int() refuses more than 4,300 digits; the header still fails as input
    path = tmp_path / "huge.csv"
    path.write_text(f"# n={'9' * 5000} l=2\n1.0\n2.0\n", encoding="ascii")
    code, out, err = run_cli(command + ["--spectrum", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: input:")
    assert err.count("\n") == 1


def test_bound_next_sphere_infeasible_input(capsys, spectra):
    argv = ["bound", "next", "--method", "sphere", "--spectrum", spectra["jump"]]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: input:")


def test_bound_next_sphere_infeasible_at_a_tiny_scale(capsys, tmp_path):
    # the residual at eigenvalue 2 is 9.9e-15, which no absolute floor may
    # hide
    path = tmp_path / "tiny.csv"
    path.write_text("# n=2 l=2\n1e-09\n7.15e-08\n", encoding="ascii")
    argv = ["bound", "next", "--method", "sphere", "--spectrum", str(path)]
    expected = (
        "error: input: the spherical form fails at eigenvalue 2 = 7.15e-08 "
        "(relative residual 0.9999962337819585 above tolerance 1e-09)\n"
    )
    assert run_cli(argv, capsys) == (1, "", expected)


def test_bound_next_far_out_of_range(capsys, tmp_path):
    # cor11 stays exact at 1e200 and fails as numerical only when its bound
    # overflows; the sharp form is evaluated on a rescaled prefix; the sphere
    # probe weights overflow from 1e80
    cases = (
        ("cor11", "1e200", 0, "4.333333333333e+200\n", ""),
        ("cor11", "1e308", 3, "", "error: numerical:"),
        ("sharp", "1e200", 0, "4.333333333333e+200\n", ""),
        ("sharp", "1e-200", 0, "4.333333333333e-200\n", ""),
        ("sharp", "1e200\n2e200", 0, "6.273030282831e+200\n", ""),
        ("sphere", "1e80", 3, "", "error: numerical:"),
    )
    path = tmp_path / "big.csv"
    for method, value, expected_code, expected_out, err_prefix in cases:
        path.write_text(f"# n=2 l=2\n{value}\n", encoding="ascii")
        argv = ["bound", "next", "--method", method, "--spectrum", str(path)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (expected_code, expected_out), (method, value)
        assert err.startswith(err_prefix) and err.count("\n") == (code != 0)


def test_bound_next_sphere_overflowed_pooled_sum(capsys, tmp_path):
    # the pooled weight sum overflows although every weight is finite
    path = tmp_path / "pooled.csv"
    path.write_text(
        "# n=3 l=2\n3.4673685045253094e+61\n3.814105354977841e+61\n4.5075790558829025e+61\n",
        encoding="ascii",
    )
    argv = ["bound", "next", "--method", "sphere", "--spectrum", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: numerical:") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["# n=10 l=301\n1e300\n1.1e300\n", "# n=3 l=250\n1e250\n2e250\n"])
def test_bound_next_sphere_terms_past_the_float_range(capsys, tmp_path, text):
    # admissible prefixes whose h_term leaves the float range: a 1,040-bit
    # coefficient, then an fsum overflow, each once an OverflowError traceback
    path = tmp_path / "far.csv"
    path.write_text(text, encoding="ascii")
    argv = ["bound", "next", "--method", "sphere", "--spectrum", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: numerical:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, command",
    [
        # the scan ends at the largest float, which the message names, not inf
        ("# n=6 l=2\n1e300\n1.1e300\n", ["bound", "next", "--method", "sphere", "--k", "1"]),
        # prior19's weights at delta = 1e308 are past the float range with
        # both signs, so its rhs would be -inf + inf
        ("# n=10 l=2\n1e-300\n600\n", ["compare-l2", "--candidate", "700", "--delta", "1e308"]),
    ],
    ids=["sphere-scan-limit", "prior19-rhs"],
)
def test_float_range_failure_is_one_numerical_line(capsys, tmp_path, text, command):
    path = tmp_path / "far.csv"
    path.write_text(text, encoding="ascii")
    code, out, err = run_cli(command + ["--spectrum", str(path)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: numerical:") and err.count("\n") == 1
    assert " at inf " not in err


def test_bound_next_bracket_failure_is_numerical(capsys, spectra, monkeypatch):
    def no_bracket(spectrum, k):
        raise BracketError("no sign change")

    monkeypatch.setattr(cli, "next_bound_sharp", no_bracket)
    argv = ["bound", "next", "--method", "sharp", "--spectrum", spectra["two"]]
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert err.startswith("error: numerical:")


def test_bound_next_missing_file(capsys, tmp_path):
    argv = ["bound", "next", "--method", "cor11", "--spectrum", str(tmp_path / "absent.csv")]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error: input:")


def test_bound_next_non_ascii_file(capsys, tmp_path):
    path = tmp_path / "accent.csv"
    path.write_bytes(b"# n=2 l=2\n1.0\n\xc3\xa9\n")
    argv = ["bound", "next", "--method", "cor11", "--spectrum", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: input:")


def test_bound_chain_output(capsys):
    argv = [
        "bound",
        "chain",
        "--lambda1",
        "1.0",
        "--count",
        "3",
        "--n",
        "2",
        "--l",
        "2",
        "--method",
        "cor11",
    ]
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (0, "1\n4.333333333333\n9.888888888889\n")
    # the sharp form gives the same chain
    code, out, _ = run_cli(argv[:-1] + ["sharp"], capsys)
    assert (code, out) == (0, "1\n4.333333333333\n9.888888888889\n")
    argv[3] = "1e160"
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (0, "1e+160\n4.333333333333e+160\n9.888888888889e+160\n")
    # a subnormal start used to end in an OverflowError traceback
    argv[3] = "5e-324"
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (0, "4.940656458412e-324\n1.976262583365e-323\n4.446590812571e-323\n", "")


def test_bound_chain_rejects_bad_n_and_l(capsys):
    argv = ["bound", "chain", "--lambda1", "1", "--count", "1", "--n", "0", "--l", "0"]
    code, out, err = run_cli(argv + ["--method", "cor11"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: usage: n must be >= 2")


def test_bound_chain_rejects_sphere(capsys):
    argv = [
        "bound",
        "chain",
        "--lambda1",
        "1.0",
        "--count",
        "3",
        "--n",
        "2",
        "--l",
        "2",
        "--method",
        "sphere",
    ]
    code, _, err = run_cli(argv, capsys)
    assert code == 2


def test_verify_text_passes(capsys):
    # at l = 4 the lemma rows read A_2 and A_3, which are built on that first read
    for l in ("2", "4"):
        argv = ["verify", "--l", l, "--degree", "4", "--kmax", "1"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith(f"domain = 1x1  l = {l}  m = 4")
        assert lines[-1] == "PASS"
        assert any("k=1 thm11:" in line for line in lines)


def test_verify_json_schema(capsys):
    argv = ["verify", "--l", "2", "--degree", "4", "--kmax", "1", "--json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["passed"] is True
    assert len(data["theorem_checks"]) == 3


def test_verify_on_a_box(capsys):
    argv = ["verify", "--dim", "3", "--l", "2", "--degree", "4", "--kmax", "2"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.startswith("domain = 1x1x1  l = 2  m = 4")
    assert out.splitlines()[-1] == "PASS"
    code, out, _ = run_cli(argv + ["--domain", "1.3,0.7,1.1", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert (data["n"], data["domain"], data["passed"]) == (3, [1.3, 0.7, 1.1], True)
    checks = data["theorem_checks"]
    assert [c["method"] for c in checks] == ["thm11", "eq112", "cor11"] * 2
    assert all(c["satisfied"] and c["verdict"] == "pass" for c in checks)
    # at l = 3 the lemma rows assemble A_2 of the 3-edge domain on first
    # read, and the coarse rung reads only the sliced pencil
    code, out, _ = run_cli(["verify", "--dim", "3", "--l", "3", "--degree", "4", "--kmax", "1"], capsys)
    assert code == 0
    assert out.startswith("domain = 1x1x1  l = 3  m = 4")
    assert out.splitlines()[-1] == "PASS"


def test_verify_rejects_dim_one(capsys):
    argv = ["verify", "--dim", "1", "--l", "2", "--degree", "4", "--kmax", "1"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: usage:")


def test_verify_failure_exit_code(capsys, monkeypatch):
    class Failing:
        passed = False

        def to_dict(self):
            return {"schema": 1, "passed": False}

    monkeypatch.setattr(cli, "run_verification", lambda *a, **k: Failing())
    argv = ["verify", "--l", "2", "--degree", "4", "--kmax", "1", "--json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 4
    assert json.loads(out)["passed"] is False


def test_verify_fails_without_coarse_partners(capsys):
    # the coarse rung holds 4 of 25 eigenvalues: the violated checks have no
    # partner, so they stay inconclusive and the run exits 4
    argv = ["verify", "--l", "2", "--degree", "5", "--kmax", "24", "--domain", "2.5,0.4"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (4, "")
    lines = out.splitlines()
    assert lines[-1] == "FAIL"
    assert sum(line.endswith(" inconclusive") for line in lines) == 15
    assert not any(line.endswith(" failed") for line in lines)


def test_verify_kmax_beyond_the_basis_is_a_usage_error(capsys):
    code, out, err = run_cli(["verify", "--l", "2", "--degree", "2", "--kmax", "9"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: usage: k_max=9 needs at least 10 eigenvalues, have 4\n"


def test_compare_l2_output(capsys, spectra):
    argv = ["compare-l2", "--spectrum", spectra["two"], "--candidate", "4.0"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (
        "prior16: lhs = 13  rhs = 28  residual = -15  satisfied = yes\n"
        "prior18: lhs = 13  rhs = 23.33333333333  residual = -10.33333333333  satisfied = yes\n"
        "prior19: lhs = 26  rhs = 27.25  residual = -1.25  satisfied = yes\n"
    )


@pytest.mark.parametrize(
    "text, candidate, expected",
    [
        # every prior overflows to inf as cor11 does, and is satisfied;
        # prior19's raw sides were inf - inf, a nan residual
        (
            "# n=2 l=2\n1e200\n2e200\n",
            "3e200",
            [
                "prior16: lhs = inf  rhs = inf  residual = -inf  satisfied = yes",
                "prior18: lhs = inf  rhs = inf  residual = -inf  satisfied = yes",
                "prior19: lhs = inf  rhs = inf  residual = -inf  satisfied = yes",
            ],
        ),
        # every lhs is many times its rhs, so no prior holds, however small
        # the scale
        (
            "# n=2 l=2\n1e-09\n",
            "7.15e-08",
            [
                "prior16: lhs = 4.97025e-15  rhs = 2.82e-16  residual = 4.68825e-15  satisfied = no",
                "prior18: lhs = 4.97025e-15  rhs = 2.35e-16  residual = 4.73525e-15  satisfied = no",
                "prior19: lhs = 9.9405e-15  rhs = 1.31306250497e-15  "
                "residual = 8.62743749503e-15  satisfied = no",
            ],
        ),
    ],
    ids=["huge", "tiny"],
)
def test_compare_l2_far_from_unit_scale(capsys, tmp_path, text, candidate, expected):
    path = tmp_path / "spectrum.csv"
    path.write_text(text, encoding="ascii")
    argv = ["compare-l2", "--spectrum", str(path), "--candidate", candidate]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.splitlines() == expected


def test_compare_l2_small_delta_lambda(capsys, tmp_path):
    # delta * lambda = 1e-17 at n = 2 used to end in a ZeroDivisionError
    # traceback, and a product that underflows to 0 then exited 3; the
    # weight's divisor is now at least lambda, so both runs succeed
    path = tmp_path / "tiny.csv"
    path.write_text("# n=2 l=2\n1e-17\n2e-17\n", encoding="ascii")
    argv = ["compare-l2", "--spectrum", str(path), "--candidate", "3e-17"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert [line.split(":")[0] for line in out.splitlines()] == ["prior16", "prior18", "prior19"]
    path.write_text("# n=2 l=2\n1e-200\n2e-200\n", encoding="ascii")
    argv = ["compare-l2", "--spectrum", str(path), "--candidate", "3e-200", "--delta", "1e-200"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[2] == "prior19: lhs = 0  rhs = 4e-200  residual = -4e-200  satisfied = yes"


def test_compare_l2_requires_order_two(capsys, spectra):
    argv = ["compare-l2", "--spectrum", spectra["sphere"], "--candidate", "20.0"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2


def test_compare_l2_rejects_n_one_like_bound_next(capsys, tmp_path):
    # compare-l2 used to end in a ZeroDivisionError traceback here
    path = tmp_path / "line.csv"
    path.write_text("# n=1 l=2\n1.0\n2.0\n", encoding="ascii")
    for argv in (
        ["compare-l2", "--spectrum", str(path), "--candidate", "3"],
        ["bound", "next", "--method", "cor11", "--spectrum", str(path)],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: usage: n must be >= 2") and err.count("\n") == 1


def test_compare_l2_nan_candidate_is_a_usage_error(capsys, spectra):
    argv = ["compare-l2", "--spectrum", spectra["two"], "--candidate", "nan"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: usage:") and err.count("\n") == 1


def test_compare_l2_non_ascii_file(capsys, tmp_path):
    path = tmp_path / "accent.csv"
    path.write_bytes(b"# n=2 l=2\n1.0\n\xc3\xa9\n")
    argv = ["compare-l2", "--spectrum", str(path), "--candidate", "4.0"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: input:")


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    result = subprocess.run(
        [sys.executable, "-m", "buckbounds", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: buckbounds")
    # argparse ends --help with SystemExit(0), which dispatch returns
    assert cli.dispatch(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: buckbounds")


def test_error_class_without_an_exit_code_propagates(monkeypatch):
    # a package error that cli._FAILURES does not name is a defect to see,
    # not a failure to map to some exit code
    class Unmapped(BuckBoundsError):
        pass

    monkeypatch.setattr(cli, "chain_bounds", lambda *a: _raise(Unmapped("stub")))
    argv = ["bound", "chain", "--lambda1", "1", "--count", "3", "--n", "2", "--l", "2"]
    with pytest.raises(Unmapped, match="^stub$"):
        cli.dispatch(argv + ["--method", "cor11"])


def test_internal_consistency_error_exit_code(capsys, monkeypatch):
    def stalled(*args):
        raise InternalConsistencyError("stub stall")

    monkeypatch.setattr(cli, "chain_bounds", stalled)
    argv = ["bound", "chain", "--lambda1", "1", "--count", "3", "--n", "2", "--l", "2"]
    assert run_cli(argv + ["--method", "cor11"], capsys) == (3, "", "error: internal: stub stall\n")


def _extreme_commands(tmp_path):
    # every subcommand at the ends of the float range and of the caps
    files = []
    for scale in (5e-324, 1e-300, 1e308):
        for n, l in ((2, 2), (3, 2), (10, 301), (2**62, 2), (2**62, 301)):
            files.append(f"# n={n} l={l}\n{scale!r}\n{scale * 1.5!r}\n")
    files += ["# n=10 l=301\n1e300\n1.1e300\n", "# n=3 l=250\n1e250\n2e250\n"]
    for i, text in enumerate(files):
        path = tmp_path / f"extreme{i}.csv"
        path.write_text(text, encoding="ascii")
        for method in ("cor11", "sharp", "sphere"):
            yield ["bound", "next", "--method", method, "--spectrum", str(path)]
        yield ["bound", "next", "--method", "cor11", "--spectrum", str(path), "--k", "1", "--exact"]
        yield ["compare-l2", "--spectrum", str(path), "--candidate", "1e308", "--delta", "1e-300"]
    # prior19 weights that saturated to -inf and +inf at delta = 1e300, as
    # lam = 5 < n - 2, and weights of -inf and +inf at delta = 1e308
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("# n=10 l=2\n5\n600\n", encoding="ascii")
    yield ["compare-l2", "--spectrum", str(mixed), "--candidate", "700", "--delta", "1e300"]
    undefined = tmp_path / "undefined.csv"
    undefined.write_text("# n=10 l=2\n1e-300\n600\n", encoding="ascii")
    yield ["compare-l2", "--spectrum", str(undefined), "--candidate", "700", "--delta", "1e308"]
    for lambda1 in ("1e-320", "1e308"):
        for n, l in ((2, 2), (2**62, 301)):
            for method in ("cor11", "sharp"):
                chain = ["--lambda1", lambda1, "--count", "4", "--n", str(n), "--l", str(l)]
                yield ["bound", "chain", *chain, "--method", method]
    for edge in ("1e-300", "1e300", "1e-300,1e300"):
        for dim in (1, 2):
            yield ["solve", "--dim", str(dim), "--l", "2", "--degree", "2", "--count", "1", "--domain", edge]
        yield ["verify", "--l", "3", "--degree", "2", "--kmax", "1", "--domain", edge]
    yield ["solve", "--dim", "3", "--l", "2", "--degree", "2", "--count", "1", "--domain", "1e300"]
    yield ["phi", "--q", "300", "--n", str(2**62), "--exact"]
    yield ["coeffs", "--l", "301", "--n", str(2**62)]


def test_every_failure_is_one_documented_line(capsys, tmp_path):
    # no exception escapes dispatch, every exit code is a documented one, and
    # a failure writes exactly one stderr line
    escaped = []
    for argv in _extreme_commands(tmp_path):
        try:
            code, _, err = run_cli(argv, capsys)
        except Exception as exc:
            escaped.append((argv, repr(exc)))
            continue
        assert code in (0, 1, 2, 3, 4), argv
        if 1 <= code <= 3:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert escaped == []


# The README's kind and exit code for every error class of the package.
_README_EXIT_CODES = {
    "InvalidParameterError": ("usage", 2),
    "SpectrumFormatError": ("input", 1),
    "DomainViolationError": ("input", 1),
    "InfeasibleSpectrumError": ("input", 1),
    "NumericalError": ("numerical", 3),
    "NotPositiveDefiniteError": ("numerical", 3),
    "ConvergenceError": ("numerical", 3),
    "BracketError": ("numerical", 3),
    "InternalConsistencyError": ("internal", 3),
}


def _package_error_classes():
    pending, found = [BuckBoundsError], []
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub.__module__.startswith("buckbounds."):
                found.append(sub)
                pending.append(sub)
    return found


def test_every_error_class_has_its_documented_exit_code(capsys, monkeypatch):
    # a new error class without an entry here reaches users as a traceback
    # until it has one in cli._FAILURES and in the README
    classes = _package_error_classes()
    assert {cls.__name__ for cls in classes} == set(_README_EXIT_CODES)
    argv = ["bound", "chain", "--lambda1", "1", "--count", "3", "--n", "2", "--l", "2"]
    for cls in classes:
        # __new__ sets the message without the subclass's own __init__ arguments
        monkeypatch.setattr(cli, "chain_bounds", lambda *a, cls=cls: _raise(cls.__new__(cls, "stub")))
        kind, code = _README_EXIT_CODES[cls.__name__]
        assert run_cli(argv + ["--method", "cor11"], capsys) == (code, "", f"error: {kind}: stub\n")


def _raise(exc):
    raise exc


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "buckbounds", "phi", "--q", "2", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "t^2 - 9 t - 2\n"


def test_repeated_runs_are_byte_identical():
    argv = [sys.executable, "-m", "buckbounds", "verify", "--l", "2", "--degree", "4", "--kmax", "1", "--json"]
    outputs = {subprocess.run(argv, capture_output=True).stdout for _ in range(3)}
    assert len(outputs) == 1
