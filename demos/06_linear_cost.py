"""Linear cost: transform time per sample as the frame grows.

The pyramid halves the signal at every level, so a J-level cascade costs
L * N * (2 - 2^(1-J)) multiply-adds per direction for a filter of
length L: a fixed amount of arithmetic per sample, whatever the frame
length N. This demo times db4 analysis and synthesis at J = 6 for
N = 2^6 .. 2^18 and prints nanoseconds per sample. On small frames the
fixed cost of each NumPy call dominates; from a few thousand samples on
the figure settles, which is the linear cost in numbers. Timings depend
on the host, so the demo reports them and checks only the round trip.
"""

import time

import numpy as np

from wavemux import analyze, make_wavelet_system, synthesize

DEPTH = 6
BUDGET_S = 0.05  # timing budget per frame length and direction

db4 = make_wavelet_system("db4")
macs_per_sample = db4.g.size * (2 - 2.0 ** (1 - DEPTH))


def best_ns(fn, arg) -> float:
    """Best time of one call, in ns, over about BUDGET_S of repeated calls."""
    best = float("inf")
    deadline = time.perf_counter() + BUDGET_S
    while True:
        t0 = time.perf_counter_ns()
        fn(arg)
        best = min(best, time.perf_counter_ns() - t0)
        if time.perf_counter() > deadline:
            return best


print(f"db4, J = {DEPTH}: {macs_per_sample:.2f} multiply-adds per sample each way")
print(f"{'N':>8} {'analysis':>12} {'synthesis':>12} {'round trip':>12}   (ns per sample, best call)")
rng = np.random.default_rng(6)
for p in range(6, 19):
    n = 1 << p
    x = rng.standard_normal(n)
    frame = analyze(x, DEPTH, db4)
    err = np.max(np.abs(synthesize(frame, db4) - x))
    assert err < 1e-12, f"round trip error {err:.1e} at N = {n}"
    t_an = best_ns(lambda v: analyze(v, DEPTH, db4), x) / n
    t_syn = best_ns(lambda f: synthesize(f, db4), frame) / n
    print(f"{'2^' + str(p):>8} {t_an:12.2f} {t_syn:12.2f} {t_an + t_syn:12.2f}")

print("\nThe per-sample figure falls while fixed call costs are spread over more")
print("samples, then holds roughly level: doubling the frame doubles the work.")
