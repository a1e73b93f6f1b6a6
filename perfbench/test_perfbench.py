"""Tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from buckbounds import bounds, eigen, errors, galerkin  # noqa: E402


def span(name, start, end, parent, key=None, error=None):
    return tracing.Span(name, start, end, parent, 0, error, key)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 counts once
        span("a.child", 2.0, 3.0, 1),
        span("b.child", 5.0, 7.0, 2),  # runs past its parent: clipped at 6
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0, 2.0])


def test_layer_metrics_from_synthetic_spans():
    table = "galerkin.derivative_integral_table"
    spans = [
        span("eigen.solve_buckling", 0.0, 9.0, -1),
        span(table, 1.0, 2.0, 0, key=(2, 4)),
        span(table, 3.0, 4.0, 0, key=(3, 4)),
        span(table, 5.0, 6.0, 0, key=(2, 4)),
        span("bounds.chain_bounds", 10.0, 12.0, -1, error="BracketError"),
        span("bounds.next_bound_sharp", 11.0, 12.0, 4, error="BracketError"),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics[f"{table}.calls"] == (3, "count")
    assert metrics[f"{table}.self_s"][0] == pytest.approx(3.0)
    assert metrics[f"{table}.repeat_share"][0] == pytest.approx(1 / 3)
    assert metrics["bounds.chain_bounds.self_s"][0] == pytest.approx(1.0)
    assert metrics["bounds.errors.BracketError"] == (1, "count")  # one operation
    assert metrics["eigen.cholesky_spd.per_solve"] == (0.0, "calls/solve")


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, percentile = run.tail([float(i) for i in range(30, 0, -1)])
    assert value == 20.0
    assert percentile == pytest.approx(200 / 3)


def test_latency_is_divided_by_the_reference_times_around_it():
    latencies = [0.2, 0.3, 0.1]
    references = [0.001, 0.003, 0.002, 0.002]
    assert run.in_reference_units(latencies, references) == pytest.approx([100.0, 120.0, 50.0])
    with pytest.raises(ValueError):
        run.in_reference_units(latencies, references[:-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(name, tmp_path):
    def inputs(seed):
        plan = workloads.build(name, seed, tmp_path)
        return [op.key for op in plan.ops] + [plan.warmup.key, plan.repeat_op.key]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_spectra_never_builds_a_table_twice(tmp_path):
    plan = workloads.build("spectra", 5, tmp_path)
    tables = [(l, m) for _, l, m, _ in workloads.SPECTRA_CELLS]
    assert len(set(tables)) == len(tables) == len(plan.ops)
    assert (2, 2) not in tables  # the warm-up's table


def test_traced_calls_are_recorded_and_unwrapped():
    originals = {
        (module, attr): getattr(importlib.import_module(f"buckbounds.{module}"), attr)
        for _, module, attr in tracing.PATCHES
    }
    tracer = tracing.Tracer()
    with tracer.installed():
        assert eigen.assemble_forms is not originals[("eigen", "assemble_forms")]
        eigen.solve_buckling(galerkin.Domain((1.0, 1.0)), 2, 3, 2)
        with pytest.raises(errors.BracketError):
            bounds.chain_bounds(50.0, 40, 3, 4, "sharp")
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(f"buckbounds.{module}"), attr) is original
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["eigen.solve_buckling.calls"] == (1, "count")
    assert metrics["eigen.cholesky_spd.per_solve"] == (3.0, "calls/solve")
    assert metrics["galerkin.derivative_integral_table.calls"] == (1, "count")
    assert metrics["bounds.errors.BracketError"] == (1, "count")


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work*"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectra", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
        check=False,
    )
    assert done.returncode != 0
    assert done.stdout == b""
