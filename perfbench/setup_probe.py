"""Set-up cost of wavemux in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <plan.json> <wavelet>

Times importing the package, building the filter pair, loading and
validating the plan and running the first allocation, and prints one JSON
line with the total, the total at the reference speed of the processor
(see speed.py; the probe kernel is timed right after the set-up), the
filter-pair share and the imported package path.
"""

import json
import statistics
import sys
from time import perf_counter, perf_counter_ns

SPEED_PROBES = 50

t0 = perf_counter()
import wavemux  # noqa: E402
from wavemux import allocate_bands, load_plan, make_wavelet_system, validate_plan  # noqa: E402

t1 = perf_counter()
make_wavelet_system(sys.argv[2])
t2 = perf_counter()
plan = load_plan(sys.argv[1])
validate_plan(plan)
allocate_bands(plan)
t3 = perf_counter()

from speed import KERNELS  # noqa: E402  (not part of the set-up)

kernel, reference_ns = KERNELS["mixed"]  # set-up is interpreter work
kernel()
probe_ns = []
for _ in range(SPEED_PROBES):
    start = perf_counter_ns()
    kernel()
    probe_ns.append(perf_counter_ns() - start)
speed = reference_ns / statistics.median(probe_ns)

print(json.dumps({"setup_s": t3 - t0, "setup_norm_s": (t3 - t0) * speed, "make_s": t2 - t1,
                  "package": wavemux.__file__}))
