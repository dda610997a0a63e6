"""Linear cost: transform time per sample as the frame grows.

The pyramid halves the signal at every level, so a J-level cascade over
N samples runs levels of N, N/2, ... samples. Each level runs the
filter pair's paraunitary lattice: for a filter of length L, a level of
M samples costs (L/2 + 1) * M multiplies, against L * M for the direct
form, so the cascade costs (L/2 + 1) * (2 - 2^(1-J)) multiplies per
sample per direction: a fixed amount of arithmetic per sample, whatever
the frame length N. This demo times db4 analysis and synthesis at J = 6
for N = 2^6 .. 2^18 and prints nanoseconds per sample beside those
multiplies per sample, and the time per multiply. On small frames the
fixed cost of each NumPy call dominates; from a few thousand samples on
the figure settles, which is the linear cost in numbers. Timings depend
on the host, so the demo reports them and checks only the round trip.

The second table runs whole frames through ``mux`` and ``demux`` on an
octave ladder plan, which is in order (``plan.layout.in_order``): its TDM
row already is its coefficient vector, so neither side permutes it.
Beside ns per sample it prints the bytes a call allocates, counted by
``tracemalloc`` after a warm-up call: the peak of fresh memory during
the call, as a multiple of the 8N bytes of one frame. Scratch arrays are
reused from call to call at every frame size, so the figure is the
result (the line, or the recovered row) plus, for demux, a one-byte mask
per sample, and on small frames a few hundred bytes of NumPy views.
"""

import time
import tracemalloc

import numpy as np

from wavemux import Channel, RatePlan, TributaryPayload, analyze, demux, make_wavelet_system, mux, synthesize

DEPTH = 6
BUDGET_S = 0.05  # timing budget per frame length and direction

db4 = make_wavelet_system("db4")
levels_per_sample = 2 - 2.0 ** (1 - DEPTH)  # N + N/2 + ... over J levels, per sample
mults_per_sample = (db4.g.size // 2 + 1) * levels_per_sample
direct_per_sample = db4.g.size * levels_per_sample


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


print(f"db4, J = {DEPTH}: the lattice makes {mults_per_sample:.2f} multiplies per sample each way"
      f" (the direct form {direct_per_sample:.2f})")
print(f"{'N':>8} {'analysis':>12} {'synthesis':>12} {'round trip':>12}   (ns per sample, best call)"
      f"  {'mults':>6} {'ns/mult':>8}")
rng = np.random.default_rng(6)
for p in range(6, 19):
    n = 1 << p
    x = rng.standard_normal(n)
    coeffs = analyze(x, DEPTH, db4)
    err = np.max(np.abs(synthesize(coeffs, DEPTH, db4) - x))
    assert err < 1e-12, f"round trip error {err:.1e} at N = {n}"
    t_an = best_ns(lambda v: analyze(v, DEPTH, db4), x) / n
    t_syn = best_ns(lambda c: synthesize(c, DEPTH, db4), coeffs) / n
    per_mult = (t_an + t_syn) / (2 * mults_per_sample)
    print(f"{'2^' + str(p):>8} {t_an:12.2f} {t_syn:12.2f} {t_an + t_syn:12.2f}   {'':18}"
          f"  {mults_per_sample:6.2f} {per_mult:8.3f}")

print("\nThe per-sample figure falls while fixed call costs are spread over more")
print("samples, then holds roughly level: doubling the frame doubles the work.")


def ladder(n: int) -> RatePlan:
    """One channel per octave band, finest first, plus a basic-rate leaf."""
    r = 8_000
    bands = tuple(Channel(f"band{k}", r << (DEPTH - k)) for k in range(1, DEPTH + 1))
    return RatePlan(n, DEPTH, r, 12, bands + (Channel("leaf", r),))


def allocated(fn, arg) -> int:
    """Peak bytes of fresh memory during one call of ``fn(arg)``, after a warm-up call."""
    fn(arg)
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


print(f"\nmux and demux of one frame, db4 ladder plan at J = {DEPTH} (in order: no scatter or gather)")
print(f"{'N':>8} {'mux':>10} {'demux':>10}   (ns per sample)  {'mux':>8} {'demux':>8}   (bytes allocated / 8N)")
for p in range(10, 19, 2):
    n = 1 << p
    plan = ladder(n)
    assert plan.layout.in_order
    payloads = [TributaryPayload.from_samples(ch.id, rng.uniform(-1, 1, hi - lo))
                for ch, (lo, hi) in zip(plan.channels, plan.layout.bounds)]
    line = mux(plan, db4, payloads)
    for sent, got in zip(payloads, demux(plan, db4, line, digital=False)):
        assert np.max(np.abs(got.samples - sent.samples)) < 1e-10, f"round trip error at N = {n}"
    t_mux = best_ns(lambda ps: mux(plan, db4, ps), payloads) / n
    t_demux = best_ns(lambda s: demux(plan, db4, s, digital=False), line) / n
    a_mux = allocated(lambda ps: mux(plan, db4, ps), payloads) / (8 * n)
    a_demux = allocated(lambda s: demux(plan, db4, s, digital=False), line) / (8 * n)
    print(f"{'2^' + str(p):>8} {t_mux:10.2f} {t_demux:10.2f}   {'':16} {a_mux:8.2f} {a_demux:8.2f}")

print("\nmux allocates its line (1.00) and demux its row plus a one-byte-per-sample")
print("finiteness mask (1.13), on small frames plus a fixed few hundred bytes:")
print("no scratch array is fresh memory.")
