#!/usr/bin/env python3
"""buckbounds benchmark: a closed-loop load generator with one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 15 --trace 0

The client waits for each operation before it starts the next.  With
``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` it is the per-layer result of one traced pass.  The line before
it records the run context and the details behind the metrics.  See
``perfbench/README.md`` for every workload and metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("spectra", "bound-chains", "verify-ladder", "cli-cold")
SETUP_SAMPLES = 9
STARTUP_SAMPLES = 3
MIN_OPS = 21  # so that the tail, with 10 operations beyond it, is at least the median
CHILD_TIMEOUT = 150
REFERENCE_ROUNDS = 250  # one reference loop takes about 1.7 ms on the machine in README.md
REFERENCE_REPEATS = 3


def work_dir():
    """This process's scratch directory for spectrum files and CLI output."""
    return WORK / str(os.getpid())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: what a child process started by this script does.
    parser.add_argument("--child", choices=("setup", "pass", "timed-pass"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_argv(args, role):
    return [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--child", role,
    ]  # fmt: skip


def run_child(argv):
    """Run a fresh interpreter to completion; its wall time and stdout."""
    import workloads

    start = time.perf_counter()
    done = subprocess.run(
        argv,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        env=workloads.child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT,
        check=False,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {done.returncode}: {done.stderr.decode()[-2000:]}")
    return elapsed, done.stdout.decode()


def run_context(seed, load):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "load_average_at_start": list(load),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "seed": seed,
    }


def judge(op, result, error, reference):
    """'ok', 'failed' (raised, or reported the wrong failure) or 'wrong' (wrong result)."""
    import workloads

    if error is not None:
        expected = op.expect_error is not None and isinstance(error, op.expect_error)
        return "ok" if expected else "failed"
    if op.expect_error is not None:
        return "wrong"
    try:
        op.check(op.record(result), reference[op.key])
    except workloads.Failed:
        return "failed"
    except workloads.Wrong:
        return "wrong"
    return "ok"


def call(fn):
    """Run ``fn``: its result, the exception it raised, and its wall time."""
    start = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # an operation's failure is a measured outcome
        result, error = None, exc
    return result, error, time.perf_counter() - start


def reference_loop():
    """Fixed exact-rational and float work in the interpreter, like the package's own."""
    total, x = Fraction(0), 0.0
    for i in range(1, REFERENCE_ROUNDS + 1):
        total += Fraction(i, 3 * i + 1)
        for j in range(i, i + 20):
            x += math.sqrt(j) / j
    return total, x


def loop_seconds():
    """The reference of the library workloads: the fastest of a few reference loops."""
    best = math.inf
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


def cold_start_seconds():
    """The reference of ``cli-cold``: a fresh interpreter that imports numpy."""
    return run_child([sys.executable, "-c", "import numpy"])[0]


def run_pass(plan, outcomes, tracer=None, before=None):
    """Run the op list once, appending (op, latency, verdict, result) per operation.

    ``before``, if given, is called before each operation.
    """
    for index, op in enumerate(plan.ops):
        if before is not None:
            before()
        if tracer is None:
            result, error, latency = call(op.call)
            outcomes.append((op, latency, judge(op, result, error, plan.reference), result))
            continue
        tracer.op = index
        with tracer.span("op." + op.kind):
            if op.replay is None:
                result, error, latency = call(op.call)
            else:
                with tracer.span("cli.subprocess"):
                    result, error, latency = call(op.call)
                replayed, replay_error, _ = call(op.replay)
        verdict = judge(op, result, error, plan.reference)
        if op.replay is not None and verdict == "ok":
            verdict = judge(op, replayed, replay_error, plan.reference)
        outcomes.append((op, latency, verdict, result))


def pass_count(plan, seconds):
    """Passes whose nominal total time is nearest to ``seconds``, and MIN_OPS at least.

    The count depends only on the plan and ``seconds``, so a faster program
    runs the same operations and every percentile keeps its rank.
    """
    return max(-(-MIN_OPS // len(plan.ops)), round(seconds / plan.pass_seconds))


def timed_pass(plan):
    """One pass over the op list, with the reference timed before each operation and after the last.

    The speed of each of the host's CPUs drifts by a third within seconds.
    A reference task of the same kind as the operations, timed on the same
    CPU just before and just after each one, drifts with it; an operation's
    latency over the mean of those two times is steady where the latency
    itself is not.  The pass is returned as JSON data, so that a child
    process can report it.
    """
    reference = cold_start_seconds if plan.name == "cli-cold" else loop_seconds
    outcomes, references = [], []
    run_pass(plan, outcomes, before=lambda: references.append(reference()))
    references.append(reference())
    if plan.name == "cli-cold":
        peak_kb = max((r.rss_kb for _, _, _, r in outcomes if r is not None), default=0)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops": [[op.key, latency, verdict] for op, latency, verdict, _ in outcomes],
        "references": references,
        "repeat": repeat_fingerprint(plan, outcomes),
        "peak_kb": peak_kb,
    }


def in_reference_units(latencies, references):
    """Each latency over the mean of the reference times just before and after it."""
    around = zip(latencies, references[:-1], references[1:], strict=True)
    return [latency / ((before + after) / 2) for latency, before, after in around]


def setup(args):
    """Import, input generation and one untimed warm-up operation."""
    import workloads

    plan = workloads.build(args.workload, args.seed, work_dir())
    call(plan.warmup.call)
    return plan


def fingerprint(op, result):
    """A digest of the operation's recorded output, eigenvectors included; None if it raised."""
    if result is None:
        return None
    data = json.dumps(op.record(result), sort_keys=True).encode()
    vectors = getattr(result, "vectors", None)
    data += vectors.tobytes() if vectors is not None else b""
    return hashlib.sha256(data).hexdigest()


def repeat_fingerprint(plan, outcomes):
    return next(fingerprint(op, result) for op, _, _, result in outcomes if op is plan.repeat_op)


def repeat_is_identical(plan, fingerprints):
    """Run the designated operation again; its output must be byte-identical to every pass's."""
    again, _, _ = call(plan.repeat_op.call)
    return all(first == fingerprint(plan.repeat_op, again) for first in fingerprints)


def tail(latencies):
    """The highest percentile with at least 10 operations beyond it."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def counts(verdicts):
    """Failed and wrong operations among (key, verdict) pairs."""
    failed = sum(1 for _, verdict in verdicts if verdict != "ok")
    wrong = sum(1 for _, verdict in verdicts if verdict == "wrong")
    return failed, wrong


def failures(verdicts):
    out = {}
    for key, verdict in verdicts:
        if verdict != "ok":
            out.setdefault(key, verdict)
    return out


def end_to_end(args):
    setup_times = [run_child(child_argv(args, "setup"))[0] for _ in range(SETUP_SAMPLES)]
    plan = setup(args)
    passes = pass_count(plan, args.seconds)
    if plan.pass_per_process:
        argv = child_argv(args, "timed-pass")
        records = [json.loads(run_child(argv)[1].splitlines()[-1]) for _ in range(passes)]
    else:
        records = [timed_pass(plan) for _ in range(passes)]
    identical = repeat_is_identical(plan, [record["repeat"] for record in records])
    verdicts = [(key, verdict) for record in records for key, _, verdict in record["ops"]]
    latencies = [latency for record in records for _, latency, _ in record["ops"]]
    in_refs = [
        unit
        for record in records
        for unit in in_reference_units([op[1] for op in record["ops"]], record["references"])
    ]
    references = [t for record in records for t in record["references"]]
    tail_refs, percentile = tail(in_refs)
    failed, wrong = counts(verdicts)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_kref": (1000.0 * len(verdicts) / sum(in_refs), "1/kref"),
        "op_p50_ref": (statistics.median(in_refs), "ref"),
        "op_tail_ref": (tail_refs, "ref"),
        "peak_rss_mb": (max(record["peak_kb"] for record in records) / 1024.0, "MB"),
    }
    details = {
        "op_count": len(verdicts),
        "passes": passes,
        "op_tail_percentile": percentile,
        # The same figures in wall time, which drift with the host's speed.
        "ops_per_s": len(verdicts) / sum(latencies),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail(latencies)[0],
        "reference_ms": 1000.0 * statistics.median(references),
        "failed_ratio": failed / len(verdicts),
        "setup_samples_s": setup_times,
        "repeat_identical": identical,
        "failures": failures(verdicts),
    }
    return verdicts, metrics, details, identical and wrong == 0


def median_child_seconds(code):
    argv = [sys.executable, "-c", code]
    return statistics.median(run_child(argv)[0] for _ in range(STARTUP_SAMPLES))


def per_layer(args):
    import tracing

    plan = setup(args)
    tracer = tracing.Tracer()
    outcomes = []
    with tracer.installed():
        start = time.perf_counter()
        run_pass(plan, outcomes, tracer)
        traced_s = time.perf_counter() - start
    identical = repeat_is_identical(plan, [repeat_fingerprint(plan, outcomes)])
    verdicts = [(op.key, verdict) for op, _, verdict, _ in outcomes]
    untraced_s = json.loads(run_child(child_argv(args, "pass"))[1].splitlines()[-1])["pass_s"]
    metrics = tracing.layer_metrics(tracer.spans)
    failed, wrong = counts(verdicts)
    metrics["failed_ratio"] = (failed / len(verdicts), "ratio")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["cli.interpreter_s"] = (median_child_seconds("pass"), "s")
    metrics["cli.import_s"] = (median_child_seconds("import buckbounds"), "s")
    details = {
        "op_count": len(outcomes),
        "spans": len(tracer.spans),
        "traced_pass_s": traced_s,
        "untraced_pass_s": untraced_s,
        "repeat_identical": identical,
        "failures": failures(verdicts),
    }
    return verdicts, metrics, details, identical and wrong == 0


def untraced_pass(args):
    """Child of a traced run: the same single pass, untraced, for the overhead."""
    import tracing

    plan = setup(args)
    outcomes = []
    # A null tracer keeps the pass identical to the traced one (CLI replays included).
    tracer = tracing.Tracer()
    start = time.perf_counter()
    run_pass(plan, outcomes, tracer)
    print(json.dumps({"pass_s": time.perf_counter() - start}))


def main(argv=None):
    load = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "buckbounds" / "__init__.py").is_file():
        print(f"error: no buckbounds source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy loads, here and in every child
    # Each CPU drifts on its own, so the operations, their references and
    # every child run on one CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")  # the m > 16 conditioning note, once per call site
    import buckbounds

    if Path(buckbounds.__file__).resolve().parent != SRC / "buckbounds":
        print(f"error: imported buckbounds from {buckbounds.__file__}", file=sys.stderr)
        return 2
    work_dir().mkdir(parents=True)
    try:
        if args.child == "setup":
            setup(args)
            return 0
        if args.child == "pass":
            untraced_pass(args)
            return 0
        if args.child == "timed-pass":
            print(json.dumps(timed_pass(setup(args))))
            return 0
        context = run_context(args.seed, load)
        measure = per_layer if args.trace else end_to_end
        verdicts, metrics, details, correct = measure(args)
    finally:
        shutil.rmtree(work_dir(), ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()
    failed, _ = counts(verdicts)
    print(json.dumps({"workload": args.workload, "context": context, "details": details}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(verdicts),
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
