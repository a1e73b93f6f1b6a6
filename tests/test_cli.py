import json
import subprocess
import sys
import warnings

import pytest

from buckbounds import cli
from buckbounds.errors import BracketError, ConvergenceError


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


def test_coeffs_output(capsys):
    code, out, _ = run_cli(["coeffs", "--l", "4", "--n", "2"], capsys)
    assert code == 0
    assert out == "l = 4  n = 2\na_1 = 16  a_1+ = 16\na_2 = 17  a_2+ = 17\n"
    code, out, _ = run_cli(["coeffs", "--l", "2", "--n", "5"], capsys)
    assert (code, out) == (0, "l = 2  n = 5\nno interior coefficients at l = 2\n")


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


def test_solve_overflow_is_numerical(capsys):
    argv = ["solve", "--dim", "1", "--l", "2", "--degree", "3", "--count", "1", "--domain", "1e-150"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: numerical:") and err.count("\n") == 1


def test_solve_overflowed_residual_check_is_numerical(capsys):
    argv = ["solve", "--dim", "2", "--l", "3", "--degree", "3", "--count", "1", "--domain", "1e200,1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: numerical:") and err.count("\n") == 1


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


def test_bound_next_sphere_infeasible_input(capsys, spectra):
    argv = ["bound", "next", "--method", "sphere", "--spectrum", spectra["jump"]]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: input:")


def test_bound_next_far_out_of_range(capsys, tmp_path):
    # cor11 stays exact at 1e200 and fails as numerical only when its bound
    # overflows; the sharp form is evaluated on a rescaled prefix; the sphere
    # probe weights overflow from 1e80
    cases = (
        ("cor11", "1e200", 0, "4.333333333333e+200\n", ""),
        ("cor11", "1e308", 3, "", "error: numerical:"),
        ("sharp", "1e200", 0, "4.333333333333e+200\n", ""),
        ("sharp", "1e-200", 0, "4.333333333333e-200\n", ""),
        ("sphere", "1e80", 3, "", "error: numerical:"),
    )
    path = tmp_path / "big.csv"
    for method, value, expected_code, expected_out, err_prefix in cases:
        path.write_text(f"# n=2 l=2\n{value}\n", encoding="ascii")
        argv = ["bound", "next", "--method", method, "--spectrum", str(path)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (expected_code, expected_out), (method, value)
        assert err.startswith(err_prefix) and err.count("\n") == (code != 0)


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
    argv[3] = "1e160"
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (0, "1e+160\n4.333333333333e+160\n9.888888888889e+160\n")


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
    argv = ["verify", "--l", "2", "--degree", "4", "--kmax", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("domain = 1x1  l = 2  m = 4")
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


def test_compare_l2_output(capsys, spectra):
    argv = ["compare-l2", "--spectrum", spectra["two"], "--candidate", "4.0"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (
        "prior16: lhs = 13  rhs = 28  residual = -15  satisfied = yes\n"
        "prior18: lhs = 13  rhs = 23.33333333333  residual = -10.33333333333  satisfied = yes\n"
        "prior19: lhs = 26  rhs = 27.25  residual = -1.25  satisfied = yes\n"
    )


def test_compare_l2_requires_order_two(capsys, spectra):
    argv = ["compare-l2", "--spectrum", spectra["sphere"], "--candidate", "20.0"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2


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
