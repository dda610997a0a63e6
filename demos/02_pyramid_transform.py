"""The transform core: periodic pyramid analysis and synthesis.

Analysis splits a signal into halved approximation/detail arrays level by
level; synthesis runs the exact adjoint back up. For orthonormal filters
the round trip is the identity and energy is conserved, which is what
lets user samples ride the coefficients unharmed.

A frame's coefficients live in one flat array as long as the signal:
the detail arrays finest first, then the approximation. ``analyze``
returns it and ``synthesize`` takes it, for one frame (N,) or a block of
frames (frames, N) alike.
"""

import numpy as np

from wavemux import analyze, make_wavelet_system, synthesize

haar = make_wavelet_system("haar")
db4 = make_wavelet_system("db4")

# ---------------------------------------------------------------------
# One level on a short signal, small enough to follow by hand.
# ---------------------------------------------------------------------
x = np.array([3.0, 1.0, 2.0, 2.0])
coeffs = analyze(x, 1, haar)
print("x        =", x)
print("detail   =", coeffs[:2])  # pairwise differences / sqrt(2)
print("approx   =", coeffs[2:])  # pairwise sums / sqrt(2)
print("rebuilt  =", synthesize(coeffs, 1, haar))

# ---------------------------------------------------------------------
# A single coefficient synthesizes to its basis waveform. At depth 2 on
# four samples the flat layout is [detail 1 (2), detail 2 (1), approx (1)]:
# the deepest approximation gives the constant; a deep detail gives a
# square wave.
# ---------------------------------------------------------------------
const = np.array([0.0, 0.0, 0.0, 1.0])
wave = np.array([0.0, 0.0, 1.0, 0.0])
print("\nunit approximation ->", synthesize(const, 2, haar))
print("unit deep detail   ->", synthesize(wave, 2, haar))

# ---------------------------------------------------------------------
# Perfect reconstruction and energy conservation (Parseval) at realistic
# sizes, on a block of frames at once.
# ---------------------------------------------------------------------
rng = np.random.default_rng(0)
for pair in (haar, db4):
    x = rng.standard_normal((4, 4096))
    c = analyze(x, 5, pair)
    err = np.max(np.abs(synthesize(c, 5, pair) - x))
    rel_energy = abs(np.vdot(c, c) - np.vdot(x, x)) / np.vdot(x, x)  # vdot flattens the block
    print(f"\n{pair.name}: depth-5 round trip on 4 frames of 4096 samples")
    print(f"  max reconstruction error: {err:.2e}")
    print(f"  relative energy drift:    {rel_energy:.2e}")

# ---------------------------------------------------------------------
# The transform is linear, so frames can be mixed coefficient-wise:
# detail [0, 1] and approximation [1, 0] synthesize to the sum of their
# two basis waveforms.
# ---------------------------------------------------------------------
mixed = np.array([0.0, 1.0, 1.0, 0.0])
print("\nsingle-level synthesis of mixed unit coefficients:", synthesize(mixed, 1, haar))
