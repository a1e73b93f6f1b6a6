"""Test-session setup that has to run before any test module is imported.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy loads it, and its
default of one thread per core makes the moderate-size dense solves of this
suite slower, not faster, on small hosts.  So the suite pins one thread
unless the environment already chose a count; subprocesses that the tests
start inherit the setting.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before the BLAS thread count was set"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
