"""Spans recorded around calls into the package's layers, and the metrics drawn from them.

The tracer replaces each public function at the module attribute its caller
looks it up by (``eigen.assemble_forms`` is how ``solve_buckling`` reaches
``galerkin.assemble_forms``), records one span per call in memory, and puts
every original back on ``uninstall``.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

# (span name, module whose attribute is replaced, attribute name)
PATCHES = (
    ("galerkin.build_basis_1d", "galerkin", "build_basis_1d"),
    ("galerkin.derivative_integral_table", "galerkin", "derivative_integral_table"),
    ("galerkin.assemble_forms", "eigen", "assemble_forms"),
    ("eigen.cholesky_spd", "eigen", "cholesky_spd"),
    ("eigen.solve_generalized", "eigen", "solve_generalized"),
    ("eigen.eigh", "eigen", "eigh"),
    ("eigen.solve_triangular", "eigen", "solve_triangular"),
    ("eigen.solve_buckling", "eigen", "solve_buckling"),
    ("eigen.solve_buckling", "verify", "solve_buckling"),
    ("eigen.solve_buckling", "cli", "solve_buckling"),
    ("bounds.next_bound_cor11", "bounds", "next_bound_cor11"),
    ("bounds.next_bound_cor11", "cli", "next_bound_cor11"),
    ("bounds.next_bound_sharp", "bounds", "next_bound_sharp"),
    ("bounds.next_bound_sharp", "cli", "next_bound_sharp"),
    ("bounds.next_bound_sphere", "bounds", "next_bound_sphere"),
    ("bounds.next_bound_sphere", "cli", "next_bound_sphere"),
    ("bounds.chain_bounds", "bounds", "chain_bounds"),
    ("bounds.chain_bounds", "cli", "chain_bounds"),
    ("bounds.optimize_delta", "bounds", "optimize_delta"),
    ("bounds.eval_thm11", "verify", "eval_thm11"),
    ("bounds.eval_eq112", "verify", "eval_eq112"),
    ("bounds.eval_cor11", "verify", "eval_cor11"),
    ("bounds.thm11_optimal_delta", "verify", "thm11_optimal_delta"),
    ("polyrec.s_term", "bounds", "s_term"),
    ("polyrec.phi_polynomial", "cli", "phi_polynomial"),
    ("polyrec.extract_a_coefficients", "cli", "extract_a_coefficients"),
    ("verify.run_verification", "verify", "run_verification"),
    ("verify.run_verification", "cli", "run_verification"),
    ("verify.convergence_study", "verify", "convergence_study"),
    ("verify.check_theorem11", "verify", "check_theorem11"),
    ("verify.check_lemma21", "verify", "check_lemma21"),
    ("cli.dispatch", "cli", "dispatch"),
)


def _table_key(args, kwargs):
    basis = args[0] if args else kwargs["basis"]
    return (basis.l, basis.m)


# Spans that also record which input they were called with.
KEYS = {"galerkin.derivative_integral_table": _table_key}

EVAL_SPANS = (
    "bounds.eval_thm11",
    "bounds.eval_eq112",
    "bounds.eval_cor11",
    "bounds.thm11_optimal_delta",
)
VERIFY_CALLERS = ("verify.run_verification", "verify.convergence_study")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    op: int  # index of the benchmark operation that caused it
    error: str | None  # class name of the exception it raised
    key: object


class Tracer:
    """In-memory span recorder for one process; single-threaded use only."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []

    def _open(self):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        return index, parent, time.perf_counter()

    def _close(self, name, key, index, parent, start, error):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = Span(name, start, end, parent, self.op, error, key)

    @contextmanager
    def span(self, name):
        index, parent, start = self._open()
        error = None
        try:
            yield
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(name, None, index, parent, start, error)

    def wrap(self, name, fn):
        key_of = KEYS.get(name)

        def traced(*args, **kwargs):
            key = key_of(args, kwargs) if key_of else None
            index, parent, start = self._open()
            error = None
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                self._close(name, key, index, parent, start, error)

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, module_name, attr in PATCHES:
            module = importlib.import_module(f"buckbounds.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def covered_length(intervals, start, end):
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered_length(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics, ``{name: (value, unit)}``, from one traced pass."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    busy = defaultdict(float)
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        self_s[span.name] += own
        busy[span.name] += span.end - span.start

    seen = set()
    repeats = 0
    tables = [s for s in spans if s.name == "galerkin.derivative_integral_table"]
    for span in sorted(tables, key=lambda s: s.start):
        repeats += span.key in seen
        seen.add(span.key)

    verify_solves = sum(
        1
        for s in spans
        if s.name == "eigen.solve_buckling" and s.parent >= 0 and spans[s.parent].name in VERIFY_CALLERS
    )
    error_ops = defaultdict(set)
    for s in spans:
        if s.error and s.name.startswith("bounds."):
            error_ops[s.error].add(s.op)

    def prefixed(table, prefix):
        return sum(v for name, v in table.items() if name.startswith(prefix))

    metrics = {}
    for name in (
        "galerkin.build_basis_1d",
        "galerkin.derivative_integral_table",
        "galerkin.assemble_forms",
        "eigen.cholesky_spd",
        "eigen.solve_generalized",
        "eigen.eigh",
        "eigen.solve_triangular",
        "bounds.next_bound_cor11",
        "bounds.next_bound_sharp",
        "bounds.next_bound_sphere",
        "bounds.chain_bounds",
        "bounds.optimize_delta",
        "verify.run_verification",
        "verify.convergence_study",
        "verify.check_theorem11",
        "verify.check_lemma21",
        "cli.dispatch",
    ):
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for name in (
        "galerkin.derivative_integral_table",
        "galerkin.assemble_forms",
        "eigen.cholesky_spd",
        "eigen.solve_buckling",
        "bounds.optimize_delta",
    ):
        metrics[f"{name}.calls"] = (calls[name], "count")
    metrics["galerkin.derivative_integral_table.repeat_share"] = (
        _ratio(repeats, len(tables)),
        "ratio",
    )
    metrics["eigen.cholesky_spd.per_solve"] = (
        _ratio(calls["eigen.cholesky_spd"], calls["eigen.solve_buckling"]),
        "calls/solve",
    )
    metrics["bounds.eval.self_s"] = (sum(self_s[n] for n in EVAL_SPANS), "s")
    for cls in ("BracketError", "InfeasibleSpectrumError"):
        metrics[f"bounds.errors.{cls}"] = (len(error_ops[cls]), "count")
    metrics["polyrec.calls"] = (prefixed(calls, "polyrec."), "count")
    metrics["polyrec.self_s"] = (prefixed(self_s, "polyrec."), "s")
    metrics["verify.solves_per_call"] = (
        _ratio(verify_solves, sum(calls[n] for n in VERIFY_CALLERS)),
        "solves/call",
    )
    subprocess_s = busy["cli.subprocess"]
    metrics["cli.startup_share"] = (
        _ratio(subprocess_s - busy["cli.dispatch"], subprocess_s),
        "ratio",
    )
    return metrics
