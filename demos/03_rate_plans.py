"""Rate plans: admissible channel mixes, frame numerology, allocation.

A J-scale frame carries 2^J basic-rate units. This script enumerates the
ways to fill one, works through classic telephony-rate configurations,
prints the deterministic slot assignment for a mixed-rate plan, and
times the compile of all-basic-rate plans from 256 to 65536 channels.
"""

import time

from wavemux import (
    Channel,
    RatePlan,
    aggregate_rate,
    allocate_bands,
    enumerate_compositions,
    frame_time,
    tributary_rates,
    validate_plan,
)

# ---------------------------------------------------------------------
# All ways to fill a 3-scale frame. n_j counts channels at rate
# 2^(J-j) R; each row satisfies sum n_j 2^(J-j) = 2^J.
# ---------------------------------------------------------------------
print("rate tiers for J=3, R=64 kbps:", tributary_rates(3, 64000))
for i, comp in enumerate(enumerate_compositions(3), start=1):
    print(f"  mix {i}: {comp}")

# ---------------------------------------------------------------------
# Frame numerology for voice-grade channels (64 kbps basic rate).
# A 512-sample, 3-scale frame with 8-bit words lasts 8 ms; shrinking the
# frame to 64 samples shortens it to 1 ms at the same rates.
# ---------------------------------------------------------------------
def equal_rate(n, j, b):
    return RatePlan(n, j, 64000, b, tuple(Channel(f"u{i}", 64000) for i in range(1 << j)))

for n, j, b in ((512, 3, 8), (64, 3, 8)):
    plan = equal_rate(n, j, b)
    t = frame_time(plan)
    print(f"\nN={n} J={j} B={b}: frame {t} s = {float(t) * 1e3:g} ms,"
          f" aggregate {aggregate_rate(plan)} bps")

# Four different word sizes that all produce a 125 us frame at
# 2.048 Mbps, the primary-rate telephony format.
print()
for n, b in ((256, 1), (128, 2), (64, 4), (32, 8)):
    plan = equal_rate(n, 5, b)
    t = frame_time(plan)
    print(f"N={n:4d} J=5 B={b}: frame {t} s, aggregate {aggregate_rate(plan)} bps")

# ---------------------------------------------------------------------
# Allocation for a mixed plan: one 256 kbps channel plus four 64 kbps
# ones. The fast channel takes the whole finest band, two slow channels
# time-share band 2 on opposite phases, and the last one rides the
# deepest approximation untransformed.
# ---------------------------------------------------------------------
plan = RatePlan(64, 3, 64000, 8, (
    Channel("video", 256000),
    Channel("voice1", 64000),
    Channel("voice2", 64000),
    Channel("voice3", 64000),
    Channel("voice4", 64000),
))
print("\ncomposition:", validate_plan(plan))
allocation = allocate_bands(plan)
for level, band in enumerate(allocation.bands, start=1):
    for slot in band:
        print(f"  band {level}: {slot.channel_id} decimation {slot.decimation} phase {slot.phase}")
print(f"  leaf {allocation.depth}: {allocation.leaf}")

# ---------------------------------------------------------------------
# Allocation cost. Channels are placed in one pass in descending rate,
# each taking the lowest free phase of the band being filled, so
# compiling a plan (validation, allocation, digest and the TDM-to-
# coefficient index) costs about the same per channel at any size.
# All-basic-rate plans at J = 8, 12 and 16 hold 2^J channels each; the
# timings depend on the host, so the demo only reports them.
# ---------------------------------------------------------------------
print("\nplan.layout compile time, all-basic-rate plans (N = 2^J):")
for j in (8, 12, 16):
    plan = RatePlan(1 << j, j, 64000, 8, tuple(Channel(f"u{i}", 64000) for i in range(1 << j)))
    t0 = time.perf_counter()
    layout = plan.layout
    seconds = time.perf_counter() - t0
    assert layout.depth == j
    print(f"  J={j:2d}: {len(plan.channels):6d} channels, {seconds * 1e3:8.1f} ms,"
          f" {seconds / len(plan.channels) * 1e6:5.1f} us per channel")
