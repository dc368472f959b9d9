"""Set-up time of one workload in a fresh process.

Times ``import nscontact`` (with the CLI module the workloads use), one
model build and its ``build_cache`` on the process CPU clock and the
wall clock, and prints both as one JSON line.  Run by ``run.py`` with
the same pinned environment as the worker.
"""

import time

CPU0 = time.process_time_ns()
WALL0 = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nscontact  # noqa: E402,F401
import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(json.dumps({"cpu_s": (time.process_time_ns() - CPU0) / 1e9,
                  "wall_s": (time.perf_counter_ns() - WALL0) / 1e9}))
