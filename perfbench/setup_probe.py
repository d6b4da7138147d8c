"""Time ``import polybergman`` plus a workload's one-time library work.

Run in a fresh interpreter, with the checkout's ``src`` on PYTHONPATH:

    python3 perfbench/setup_probe.py <workload>

Prints one JSON object: import_s, work_s (rule builds or calibration),
setup_s (their sum), calibration_s (cold calibrated_constant for the CLI's
default n=3, p=2, which a cold ``wbergman`` call pays) and the module path.
"""

import sys
import time

t0 = time.perf_counter()
import polybergman as pb  # noqa: E402

t1 = time.perf_counter()
import json  # noqa: E402

import workloads  # noqa: E402

t2 = time.perf_counter()
workloads.prepare(sys.argv[1], pb)
t3 = time.perf_counter()
pb.calibrated_constant(pb.KernelConfig(n=3, p=2))
t4 = time.perf_counter()
print(json.dumps({
    "import_s": t1 - t0,
    "work_s": t3 - t2,
    "setup_s": (t1 - t0) + (t3 - t2),
    "calibration_s": t4 - t3,
    "module": pb.__file__,
}))
