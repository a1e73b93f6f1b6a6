"""Seeded workloads: their inputs, the operations run on them, and the output checks.

Every input is drawn from a finite pool, so that each operation's output can
be compared with a value stored in ``reference.json``; the seed picks the
pool entries and the order of the operations.  ``make_reference.py`` rebuilds
that file by running every pool entry once.

Each operation calls the package through a module attribute looked up at
call time (``eigen.solve_buckling``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from buckbounds import bounds, cli, eigen, errors, galerkin, verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"

# Tolerances, each no looser than the acceptance suite's for the same quantity.
EIGEN_REL = 1e-9  # eigenvalues against stored values (criterion 3 uses 1e-8)
CLOSED_FORM_REL = 1e-8  # clamped beam 4 pi**2 / a**2 (criterion 3)
DOUBLE_REL = 1e-10  # the two members of a double eigenvalue on a square
BOUND_REL = 1e-12  # one next-eigenvalue bound against its stored value (criteria 8, 9)
CHAIN_REL = 1e-10  # chained bounds, whose rounding compounds over 40 steps
ORDER_REL = 1e-9  # sharp <= cor11 (criterion 8)
LEMMA_ABS = 1e-10  # intermediate quadratic forms (criterion 6)

# No edge is a dyadic rational: Fraction(1.25) = 5/4 would make exact
# assembly much cheaper than for the other edges, and the cost would then
# depend on the seed.
INTERVAL_EDGES = ((0.8,), (0.95,), (1.1,), (1.3,))
SQUARE_EDGES = ((0.85, 0.85), (1.05, 1.05), (1.2, 1.2), (1.4, 1.4))
OBLONG_EDGES = ((0.9, 1.3), (1.15, 0.7), (0.8, 1.05), (1.35, 0.95))
EDGE_POOLS = {"interval": INTERVAL_EDGES, "square": SQUARE_EDGES, "oblong": OBLONG_EDGES}

# spectra: (dim, l, m, shape).  No (l, m) appears twice, so no 1D integral
# table is ever built twice in a pass.  Costs at the base commit form five
# groups: 15 cheap operations under 60 ms, 10 near 100 ms, 8 near 350 ms,
# 4 near 0.75 s and 3 above 0.9 s.  Over the two passes of a run, the median
# (ranks 40-41 of 80) and the tail (rank 70) then fall in the middle of a
# group of similar costs, so noise on one operation cannot move them far.
SPECTRA_CELLS = (
    # cheap
    *((1, 2, m, "interval") for m in (4, 6, 8, 11)),
    *((1, 3, m, "interval") for m in (4, 6, 7)),
    *((1, 4, m, "interval") for m in (4, 6)),
    *((1, 6, m, "interval") for m in (4, 5)),
    (2, 2, 3, "square"),
    (2, 2, 5, "oblong"),
    (2, 3, 3, "oblong"),
    (2, 4, 3, "square"),
    # near 100 ms: the median
    *((1, 2, m, "interval") for m in (14, 15)),
    *((1, 3, m, "interval") for m in (11, 12)),
    (1, 4, 9, "interval"),
    *((1, 6, m, "interval") for m in (6, 7)),
    (2, 2, 7, "square"),
    (2, 3, 5, "square"),
    (2, 4, 5, "oblong"),
    # near 350 ms
    *((1, 2, m, "interval") for m in (23, 24)),
    (1, 3, 18, "interval"),
    (1, 4, 15, "interval"),
    (1, 6, 11, "interval"),
    (2, 2, 10, "oblong"),
    (2, 3, 8, "oblong"),
    (2, 4, 7, "square"),
    # near 0.75 s: the tail
    (1, 3, 24, "interval"),
    *((1, 4, m, "interval") for m in (20, 21)),
    (2, 3, 10, "square"),
    # heavy, including the one large-N (400) solve
    (1, 4, 24, "interval"),
    (1, 6, 16, "interval"),
    (2, 2, 20, "square"),
)
SPECTRA_COUNT = 4

# verify-ladder: (function, l, m or m list, kmax or count, shape).  Small N,
# and the same (l, m) tables are rebuilt across and within operations.
VERIFY_CASES = (
    ("run_verification", 2, 8, 3, "square"),
    ("run_verification", 2, 12, 4, "oblong"),
    ("run_verification", 3, 8, 3, "oblong"),
    ("run_verification", 4, 6, 2, "square"),
    ("convergence_study", 2, (4, 6, 8, 10), 4, "oblong"),
    ("convergence_study", 3, (2, 4, 6, 8), 3, "square"),
    ("convergence_study", 4, (2, 4, 6), 3, "oblong"),
)

BOUND_CELLS = tuple((n, l) for n in range(2, 6) for l in range(2, 6))
LAMBDA1_POOL = (12.5, 30.0, 75.0, 140.0)
CHAIN_COUNT = 40
WEYL_POOL = 4
WEYL_LENGTH = 40
NEXT_KS = (10, 40)
# One cheap cor11 bound per (n, l) puts the median of a pass (rank 57 of 113)
# in the middle of the sharp k = 40 group rather than at its edge.
COR11_K = 40
# Sharp chains from 50.0 that raise BracketError at the base commit (steps 29, 35,
# 31 and 17); they stay in every pass as failed operations.
DEFECT_CHAINS = ((3, 4), (4, 4), (4, 3), (5, 5))
DEFECT_LAMBDA1 = 50.0
# lambda_i = i**2 + 10, n = 3, l = 3, k = 40 is infeasible under the sharp
# inequality; the right answer is InfeasibleSpectrumError (exit 1).
INFEASIBLE_VALUES = tuple(float(i * i + 10) for i in range(1, 41))
INFEASIBLE_NL = (3, 3)

CLI_PHI = tuple((q, n) for q in range(1, 9) for n in range(2, 7))
CLI_COEFFS = tuple((l, n) for l in range(2, 7) for n in range(2, 7))
CLI_CHAIN_COUNT = 10
CLI_K = 10
CLI_EXIT = {"infeasible": 1}  # every other CLI operation should exit 0
RECTANGLE_EDGES = SQUARE_EDGES + OBLONG_EDGES

WORKLOADS = ("spectra", "bound-chains", "verify-ladder", "cli-cold")


class Wrong(Exception):
    """The program returned a result that fails its check."""


class Failed(Exception):
    """The program reported a failure where it should have succeeded, or the wrong one."""


@dataclass
class Op:
    """One benchmark operation.

    ``call`` runs it; ``record`` turns its result into JSON data, which
    ``check`` compares with the stored reference.  ``reference`` computes the
    data stored by ``make_reference.py``.  ``expect_error`` names the
    exception class a correct program raises.  ``replay`` is the in-process
    ``cli.dispatch`` of a CLI operation, used by the traced run.
    """

    kind: str
    key: str
    call: Callable[[], object]
    record: Callable[[object], object] = lambda result: result
    check: Callable[[object, object], None] = lambda data, ref: None
    reference: Callable[[], object] | None = None
    expect_error: type | None = None
    replay: Callable[[], object] | None = None

    def reference_data(self):
        if self.reference is not None:
            return self.reference()
        if self.expect_error is not None:
            return None
        return self.record(self.call())


@dataclass
class Plan:
    """One workload's inputs for one seed."""

    name: str
    ops: list
    warmup: Op
    repeat_op: Op  # repeated after the timed phase; its output must not change
    pass_seconds: float  # one pass over ops at the base commit, on the machine in README.md
    pass_per_process: bool = False  # run each timed pass in a fresh interpreter
    reference: dict = None  # stored reference data by op key


class CliResult(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    rss_kb: int


def _rel_close(value, ref, rel):
    return abs(value - ref) <= rel * max(1.0, abs(ref))


def _same_length(values, refs, what):
    if len(values) != len(refs):
        raise Wrong(f"{what}: {len(values)} entries, expected {len(refs)}")


def _close_lists(values, refs, rel, what):
    _same_length(values, refs, what)
    for i, (value, ref) in enumerate(zip(values, refs)):
        if not _rel_close(value, ref, rel):
            raise Wrong(f"{what}[{i}] = {value!r}, reference {ref!r}")


def _close_rows(rows, ref_rows):
    _same_length(rows, ref_rows, "eigenvalue rows")
    for row, ref_row in zip(rows, ref_rows):
        _close_lists(row, ref_row, EIGEN_REL, "eigenvalues")


def _fmt_edges(edges):
    return ",".join(repr(e) for e in edges)


def euclidean_coefficient(n, l):
    """2 l**2 + (n - 14/3) l + 8/3 - n, computed here independently of the package."""
    return (6 * l * l + 3 * n * l - 14 * l + 8 - 3 * n) / 3


def cor11_bound(values, n, l):
    """Largest root of k x**2 - (2 + C) S1 x + (1 + C) S2, C = 4 coefficient / n**2."""
    big_c = 4.0 * euclidean_coefficient(n, l) / (n * n)
    k = len(values)
    linear = (2.0 + big_c) * math.fsum(values)
    constant = (1.0 + big_c) * math.fsum(v * v for v in values)
    disc = linear * linear - 4.0 * k * constant
    if disc < 0.0:
        return None
    return (linear + math.sqrt(disc)) / (2.0 * k)


def weyl_spectrum(n, l, j):
    """Pool spectrum j for (n, l): c (i + jitter)**(2 (l-1) / n), i = 1..40, sorted."""
    rng = random.Random(f"weyl:{n}:{l}:{j}")
    scale = (n - 1) ** (l - 1) + 5.0 + 10.0 * j
    exponent = 2.0 * (l - 1) / n
    return tuple(
        sorted(scale * (i + rng.uniform(-0.3, 0.3)) ** exponent for i in range(1, WEYL_LENGTH + 1))
    )


# ---------------------------------------------------------------- spectra


def solve_op(dim, l, m, edges):
    domain = galerkin.Domain(edges)
    count = min(SPECTRA_COUNT, m**dim)
    square = dim == 2 and edges[0] == edges[1]

    def check(values, ref):
        if any(b < a for a, b in zip(values, values[1:])) or values[0] <= 0.0:
            raise Wrong(f"eigenvalues not positive ascending: {values}")
        _close_lists(values, ref, EIGEN_REL, "eigenvalues")
        if dim == 1 and l == 2 and m >= 10:
            exact = 4.0 * math.pi**2 / edges[0] ** 2
            if not _rel_close(values[0], exact, CLOSED_FORM_REL):
                raise Wrong(f"clamped beam: {values[0]!r} vs 4 pi^2/a^2 = {exact!r}")
        if square and count >= 3 and abs(values[1] - values[2]) > DOUBLE_REL * values[2]:
            raise Wrong(f"double eigenvalue split: {values[1]!r} vs {values[2]!r}")

    return Op(
        kind="solve",
        key=f"solve|l={l}|m={m}|edges={_fmt_edges(edges)}",
        call=lambda: eigen.solve_buckling(domain, l, m, count),
        record=lambda spectrum: list(spectrum.values),
        check=check,
    )


def build_spectra(rng, work_dir):
    ops = [
        solve_op(dim, l, m, rng.choice(EDGE_POOLS[shape])) for dim, l, m, shape in SPECTRA_CELLS
    ]
    repeat_op = ops[SPECTRA_CELLS.index((2, 2, 7, "square"))]
    rng.shuffle(ops)
    warmup = solve_op(1, 2, 2, rng.choice(INTERVAL_EDGES))
    # A fresh interpreter per pass: no process ever builds a 1D table twice.
    return Plan("spectra", ops, warmup, repeat_op, pass_seconds=11.0, pass_per_process=True)


def all_spectra_ops(work_dir):
    for dim, l, m, shape in SPECTRA_CELLS:
        for edges in EDGE_POOLS[shape]:
            yield solve_op(dim, l, m, edges)


# ---------------------------------------------------------------- verify-ladder


def _check_verification(data, ref):
    if not all(data["convergence"]["monotone"]):
        raise Wrong("Rayleigh-Ritz estimates rose as the nested basis grew")
    if data["passed"] != ref["passed"]:
        raise Wrong(f"passed = {data['passed']}, reference {ref['passed']}")
    got, want = data["theorem_checks"], ref["theorem_checks"]
    if [c["verdict"] for c in got] != [c["verdict"] for c in want]:
        raise Wrong("theorem verdicts differ from the reference")
    for side in ("lhs", "rhs"):
        _close_lists([c[side] for c in got], [c[side] for c in want], EIGEN_REL, side)
    _same_length(data["lemma_rows"], ref["lemma_rows"], "lemma rows")
    for row, ref_row in zip(data["lemma_rows"], ref["lemma_rows"]):
        if abs(row["value"] - ref_row["value"]) > max(LEMMA_ABS, EIGEN_REL * abs(ref_row["value"])):
            raise Wrong(f"lemma row {row} differs from {ref_row}")
    _close_rows(data["convergence"]["eigenvalues"], ref["convergence"]["eigenvalues"])


def _check_convergence(data, ref):
    if not all(data["monotone"]):
        raise Wrong("Rayleigh-Ritz estimates rose as the nested basis grew")
    _close_rows(data["eigenvalues"], ref["eigenvalues"])


def verify_op(function, l, size, extra, edges):
    domain = galerkin.Domain(edges)
    if function == "run_verification":
        return Op(
            kind="run_verification",
            key=f"run_verification|l={l}|m={size}|kmax={extra}|edges={_fmt_edges(edges)}",
            call=lambda: verify.run_verification(domain, l, size, extra),
            record=lambda report: json.loads(json.dumps(report.to_dict())),
            check=_check_verification,
        )
    return Op(
        kind="convergence_study",
        key=f"convergence_study|l={l}|m={','.join(map(str, size))}|count={extra}|edges={_fmt_edges(edges)}",
        call=lambda: verify.convergence_study(domain, l, size, extra),
        record=lambda table: {
            "eigenvalues": [list(row) for row in table.eigenvalues],
            "monotone": list(table.monotone),
        },
        check=_check_convergence,
    )


def build_verify(rng, work_dir):
    ops = [verify_op(f, l, s, x, rng.choice(EDGE_POOLS[shape])) for f, l, s, x, shape in VERIFY_CASES]
    repeat_op = ops[0]
    rng.shuffle(ops)
    warmup = verify_op("run_verification", 2, 2, 0, rng.choice(SQUARE_EDGES))
    return Plan("verify-ladder", ops, warmup, repeat_op, pass_seconds=2.4)


def all_verify_ops(work_dir):
    for f, l, s, x, shape in VERIFY_CASES:
        for edges in EDGE_POOLS[shape]:
            yield verify_op(f, l, s, x, edges)


# ---------------------------------------------------------------- bound-chains


def chain_reference(method, lambda1, n, l, count):
    """The chain step by step; where the solver raises, the prefix before it."""
    values = [lambda1]
    solver = getattr(bounds, f"next_bound_{method}")
    for j in range(1, count):
        spectrum = bounds.Spectrum(values=tuple(values), n=n, l=l)
        try:
            values.append(solver(spectrum, j))
        except errors.NumericalError:
            break
    return values


def check_chain(values, ref, method, lambda1, n, l, count):
    if len(values) != count or values[0] != lambda1:
        raise Wrong(f"chain of {len(values)} values starting at {values[0]!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise Wrong("chain is not strictly increasing")
    first = lambda1 * (1.0 + 4.0 * euclidean_coefficient(n, l) / (n * n))
    if not _rel_close(values[1], first, BOUND_REL):
        raise Wrong(f"first step {values[1]!r}, closed form {first!r}")
    if method == "sharp":
        for j in range(1, count):
            quad = cor11_bound(values[:j], n, l)
            if quad is None or values[j] > quad * (1.0 + ORDER_REL):
                raise Wrong(f"sharp step {j} = {values[j]!r} above cor11 {quad!r}")
    _close_lists(values[: len(ref)], ref, CHAIN_REL, "chain")


def chain_op(method, lambda1, n, l, count=CHAIN_COUNT):
    return Op(
        kind=f"chain.{method}",
        key=f"chain|{method}|n={n}|l={l}|lambda1={lambda1!r}|count={count}",
        call=lambda: bounds.chain_bounds(lambda1, count, n, l, method),
        record=list,
        check=lambda values, ref: check_chain(values, ref, method, lambda1, n, l, count),
        reference=lambda: chain_reference(method, lambda1, n, l, count),
    )


def next_op(method, n, l, j, k):
    values = weyl_spectrum(n, l, j)
    spectrum = bounds.Spectrum(values=values, n=n, l=l)

    def check(value, ref):
        if value < values[k - 1]:
            raise Wrong(f"bound {value!r} below eigenvalue {k}")
        quad = cor11_bound(values[:k], n, l)
        if method == "sharp" and (quad is None or value > quad * (1.0 + ORDER_REL)):
            raise Wrong(f"sharp bound {value!r} above cor11 {quad!r}")
        if method == "cor11" and (quad is None or not _rel_close(value, quad, ORDER_REL)):
            raise Wrong(f"cor11 bound {value!r}, closed form {quad!r}")
        if not _rel_close(value, ref, BOUND_REL):
            raise Wrong(f"bound {value!r}, reference {ref!r}")

    return Op(
        kind=f"next.{method}",
        key=f"next|{method}|n={n}|l={l}|weyl={j}|k={k}",
        call=lambda: getattr(bounds, f"next_bound_{method}")(spectrum, k),
        check=check,
    )


def infeasible_op():
    n, l = INFEASIBLE_NL
    spectrum = bounds.Spectrum(values=INFEASIBLE_VALUES, n=n, l=l)
    return Op(
        kind="next.sharp.infeasible",
        key=f"next|sharp|n={n}|l={l}|infeasible|k={len(INFEASIBLE_VALUES)}",
        call=lambda: bounds.next_bound_sharp(spectrum, len(INFEASIBLE_VALUES)),
        expect_error=errors.InfeasibleSpectrumError,
    )


def build_bounds(rng, work_dir):
    ops = []
    for n, l in BOUND_CELLS:
        sharp_start = DEFECT_LAMBDA1 if (n, l) in DEFECT_CHAINS else rng.choice(LAMBDA1_POOL)
        ops.append(chain_op("sharp", sharp_start, n, l))
        ops.append(chain_op("cor11", rng.choice(LAMBDA1_POOL), n, l))
    for n, l in BOUND_CELLS:
        j = rng.randrange(WEYL_POOL)
        ops.append(next_op("cor11", n, l, j, COR11_K))
        ops.extend(next_op(method, n, l, j, k) for method in ("sharp", "sphere") for k in NEXT_KS)
    ops.append(infeasible_op())
    repeat_op = ops[-2]
    rng.shuffle(ops)
    warmup = chain_op("sharp", rng.choice(LAMBDA1_POOL), 2, 2, count=4)
    return Plan("bound-chains", ops, warmup, repeat_op, pass_seconds=6.6)


def all_bound_ops(work_dir):
    for n, l in BOUND_CELLS:
        for method in ("sharp", "cor11"):
            for lambda1 in LAMBDA1_POOL:
                yield chain_op(method, lambda1, n, l)
        for j in range(WEYL_POOL):
            yield next_op("cor11", n, l, j, COR11_K)
            for method in ("sharp", "sphere"):
                for k in NEXT_KS:
                    yield next_op(method, n, l, j, k)
    for n, l in DEFECT_CHAINS:
        yield chain_op("sharp", DEFECT_LAMBDA1, n, l)
    yield infeasible_op()


# ---------------------------------------------------------------- cli-cold


def child_env():
    """The environment of every child interpreter: this checkout's source, BLAS pinned."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli(args, work_dir):
    """``python -m buckbounds`` in a fresh interpreter; peak RSS from wait4."""
    with tempfile.TemporaryFile(dir=work_dir) as out, tempfile.TemporaryFile(dir=work_dir) as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "buckbounds", *args],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=child_env(),
            cwd=ROOT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliResult(proc.returncode, out.read(), err.read(), usage.ru_maxrss)


def dispatch_in_process(args):
    """``cli.dispatch`` on the same arguments, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(list(args))
    return CliResult(code, out.getvalue().encode("ascii"), err.getvalue().encode(), 0)


def write_spectrum_file(work_dir, name, values, n, l):
    path = Path(work_dir) / f"{name}.csv"
    path.write_text(f"# n={n} l={l}\n" + "".join(f"{v!r}\n" for v in values), encoding="ascii")
    return path


def _check_cli(data, ref, expect_exit):
    if data["exit"] != expect_exit:
        raise Failed(f"exit code {data['exit']}, expected {expect_exit}")
    if ref["stdout"] is not None:
        if data["stdout"] != ref["stdout"]:
            raise Wrong("stdout differs from the stored golden output")
    elif expect_exit != 0:
        if data["stdout"]:
            raise Wrong("an error exit printed to stdout")
    else:
        # No golden output exists for this chain (a known defect), so check its shape.
        values = [float(line) for line in data["stdout"].splitlines()]
        if len(values) != CHAIN_COUNT or any(b <= a for a, b in zip(values, values[1:])):
            raise Wrong("chain output is not 40 strictly increasing values")
        _close_lists(values[: len(ref["prefix"])], ref["prefix"], CHAIN_REL, "chain")


def cli_op(kind, params, work_dir):
    """One CLI operation from the pool; see ``_cli_args`` for the arguments."""
    work_dir = Path(work_dir)
    args, label = _cli_args(kind, params, work_dir)
    resolved = [str(work_dir / a[1:]) if a.startswith("@") else a for a in args]
    expect_exit = CLI_EXIT.get(kind, 0)

    def record(result):
        return {"exit": result.code, "stdout": result.stdout.decode("ascii")}

    def reference():
        data = record(dispatch_in_process(resolved))
        if data["exit"] == expect_exit:
            return {"stdout": data["stdout"]}
        prefix = None
        if kind == "chain.defect":
            prefix = chain_reference("sharp", DEFECT_LAMBDA1, *params, CHAIN_COUNT)
        return {"stdout": None, "prefix": prefix}

    return Op(
        kind=f"cli.{kind}",
        key=f"cli|{label}",
        call=lambda: run_cli(resolved, work_dir),
        record=record,
        check=lambda data, ref: _check_cli(data, ref, expect_exit),
        reference=reference,
        replay=lambda: dispatch_in_process(resolved),
    )


def _cli_args(kind, params, work_dir):
    """(args, label) for one pool entry; ``@name`` marks a file in ``work_dir``."""
    if kind == "phi":
        q, n = params
        args = ["phi", "--q", str(q), "--n", str(n), "--json"]
    elif kind == "coeffs":
        l, n = params
        args = ["coeffs", "--l", str(l), "--n", str(n)]
    elif kind.startswith("next."):
        n, l, j = params
        name = f"weyl-{n}-{l}-{j}"
        write_spectrum_file(work_dir, name, weyl_spectrum(n, l, j), n, l)
        args = ["bound", "next", "--method", kind[5:], "--spectrum", f"@{name}.csv", "--k", str(CLI_K)]
    elif kind == "chain":
        n, l, lambda1 = params
        args = ["bound", "chain", "--lambda1", repr(lambda1), "--count", str(CLI_CHAIN_COUNT)]
        args += ["--n", str(n), "--l", str(l), "--method", "cor11"]
    elif kind == "solve":
        args = ["solve", "--dim", "2", "--l", "2", "--degree", "3", "--count", "4"]
        args += ["--domain", _fmt_edges(params), "--json"]
    elif kind == "verify":
        args = ["verify", "--l", "2", "--degree", "3", "--kmax", "1", "--domain", _fmt_edges(params)]
        args += ["--json"]
    elif kind == "chain.defect":
        n, l = params
        args = ["bound", "chain", "--lambda1", repr(DEFECT_LAMBDA1), "--count", str(CHAIN_COUNT)]
        args += ["--n", str(n), "--l", str(l), "--method", "sharp"]
    elif kind == "infeasible":
        n, l = INFEASIBLE_NL
        write_spectrum_file(work_dir, "infeasible", INFEASIBLE_VALUES, n, l)
        args = ["bound", "next", "--method", "sharp", "--spectrum", "@infeasible.csv"]
    else:
        raise ValueError(f"unknown CLI operation {kind!r}")
    label = " ".join(a[1:] if a.startswith("@") else a for a in args)
    return args, label


def _cli_pool():
    yield from (("phi", p) for p in CLI_PHI)
    yield from (("coeffs", p) for p in CLI_COEFFS)
    for n, l in BOUND_CELLS:
        for j in range(WEYL_POOL):
            yield from ((f"next.{m}", (n, l, j)) for m in ("cor11", "sharp", "sphere"))
        yield from (("chain", (n, l, lam)) for lam in LAMBDA1_POOL)
    yield from (("solve", e) for e in RECTANGLE_EDGES)
    yield from (("verify", e) for e in RECTANGLE_EDGES)
    yield ("chain.defect", DEFECT_CHAINS[0])
    yield ("infeasible", None)


def build_cli(rng, work_dir):
    n, l = rng.choice(BOUND_CELLS)
    j = rng.randrange(WEYL_POOL)
    chosen = [
        ("phi", rng.choice(CLI_PHI)),
        ("coeffs", rng.choice(CLI_COEFFS)),
        *((f"next.{m}", (n, l, j)) for m in ("cor11", "sharp", "sphere")),
        ("chain", (*rng.choice(BOUND_CELLS), rng.choice(LAMBDA1_POOL))),
        ("solve", rng.choice(RECTANGLE_EDGES)),
        ("verify", rng.choice(RECTANGLE_EDGES)),
        ("chain.defect", DEFECT_CHAINS[0]),
        ("infeasible", None),
    ]
    ops = [cli_op(kind, params, work_dir) for kind, params in chosen]
    repeat_op = ops[6]
    rng.shuffle(ops)
    warmup = cli_op("phi", rng.choice(CLI_PHI), work_dir)
    return Plan("cli-cold", ops, warmup, repeat_op, pass_seconds=5.0)


def all_cli_ops(work_dir):
    for kind, params in _cli_pool():
        yield cli_op(kind, params, work_dir)


# ---------------------------------------------------------------- registry

PLANS = {
    "spectra": build_spectra,
    "bound-chains": build_bounds,
    "verify-ladder": build_verify,
    "cli-cold": build_cli,
}
ALL_OPS = {
    "spectra": all_spectra_ops,
    "bound-chains": all_bound_ops,
    "verify-ladder": all_verify_ops,
    "cli-cold": all_cli_ops,
}


def build(name, seed, work_dir):
    """The workload's plan for this seed; the same seed gives the same inputs."""
    plan = PLANS[name](random.Random(f"{name}:{seed}"), work_dir)
    stored = load_reference()
    missing = [op.key for op in plan.ops if op.key not in stored]
    if missing:
        raise KeyError(f"reference.json has no entry for {missing[:3]}")
    plan.reference = {op.key: stored[op.key] for op in plan.ops}
    return plan


def load_reference():
    with open(REFERENCE_PATH, encoding="ascii") as handle:
        return json.load(handle)
