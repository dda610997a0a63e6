"""End to end: bit streams in, one signal out, bit streams back.

Each channel's bits become quantized samples, the samples are scattered
into the coefficient frame dictated by the allocation, and one synthesis
pass produces the line signal. The receiver runs analysis and reads every
channel back bit-exactly. Decoding with the wrong wavelet fails loudly
instead of returning garbage.
"""

import numpy as np

from wavemux import (
    Channel,
    OffGrid,
    RatePlan,
    TributaryPayload,
    demux,
    dequantize_samples,
    make_wavelet_system,
    mux,
    quantize_words,
    random_payloads,
)

# ---------------------------------------------------------------------
# The word-to-amplitude mapping: 2^B midrise levels inside (-1, 1).
# ---------------------------------------------------------------------
print("2-bit levels:", quantize_words("00011011", 2))
print("decoded back:", dequantize_samples([-0.75, -0.25, 0.25, 0.75], 2))

# ---------------------------------------------------------------------
# A mixed-rate plan: one fast channel and four voice channels sharing a
# 64-sample frame (1 ms at these rates).
# ---------------------------------------------------------------------
plan = RatePlan(64, 3, 64000, 8, (
    Channel("data", 256000),
    Channel("voice1", 64000),
    Channel("voice2", 64000),
    Channel("voice3", 64000),
    Channel("voice4", 64000),
))
system = make_wavelet_system("db4")

payloads = random_payloads(plan, seed=2024)
for p in payloads:
    print(f"  {p.id}: {len(p.bits)} bits/frame")

signal = mux(plan, system, payloads)
print("line signal:", len(signal), "samples, energy", round(float(np.dot(signal.samples, signal.samples)), 3))

recovered = demux(plan, system, signal)
print("bit-exact recovery:", all(s.bits == r.bits for s, r in zip(payloads, recovered)))

# ---------------------------------------------------------------------
# Same line signal, wrong wavelet at the receiver: the recovered samples
# land far from every quantizer level and decoding refuses.
# ---------------------------------------------------------------------
try:
    demux(plan, make_wavelet_system("haar"), signal)
except OffGrid as exc:
    print("haar receiver on a db4 signal:", exc)

# ---------------------------------------------------------------------
# Sample mode: analog-style payloads skip the quantizer and round-trip
# to within transform precision.
# ---------------------------------------------------------------------
rng = np.random.default_rng(5)
analog = [
    TributaryPayload.from_samples(ch.id, rng.uniform(-1, 1, (ch.rate // 64000) * 8))
    for ch in plan.channels
]
back = demux(plan, system, mux(plan, system, analog), digital=False)
worst = max(float(np.max(np.abs(a.samples - b.samples))) for a, b in zip(analog, back))
print("sample-mode worst error:", f"{worst:.2e}")
