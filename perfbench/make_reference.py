#!/usr/bin/env python3
"""Rebuild perfbench/reference.json by running every pool entry of every workload once.

    python3 perfbench/make_reference.py

The stored values are what the benchmark compares each operation's output
with, so rebuild them only from a commit whose outputs are trusted, and say
so in the change that rebuilds them.  Each stored value must also pass the
operation's own independent checks (closed forms, double eigenvalues,
sharp <= cor11); the script stops if one does not.  Operations that fail at
this commit are listed on stderr: they stay in the workloads as failures.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def checkable(op, data, chain_count):
    """Whether the operation's independent checks apply to its stored data."""
    if data is None or op.kind.startswith("cli."):
        return False
    return not op.kind.startswith("chain.") or len(data) == chain_count


def failing(op, data, chain_count):
    """Whether the stored data shows the operation failing at this commit."""
    if op.kind.startswith("chain."):
        return len(data) < chain_count
    return op.kind.startswith("cli.") and data["stdout"] is None


def main():
    from run import BLAS_THREADS

    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")
    import workloads

    stored = {}
    work_dir = Path(tempfile.mkdtemp(dir=HERE, prefix=".work-reference-"))
    try:
        for name in workloads.WORKLOADS:
            for op in workloads.ALL_OPS[name](work_dir):
                try:
                    data = op.reference_data()
                except Exception as exc:  # recorded as a failure of this commit
                    print(f"{name}: {op.key}: raises {type(exc).__name__}", file=sys.stderr)
                    data = None
                if failing(op, data, workloads.CHAIN_COUNT):
                    print(f"{name}: {op.key}: fails at this commit", file=sys.stderr)
                if checkable(op, data, workloads.CHAIN_COUNT):
                    op.check(data, data)  # independent checks must hold on the stored value
                stored[op.key] = data
            print(f"{name}: {len(stored)} entries so far", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="ascii") as handle:
        json.dump(stored, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
