"""Build and inspect orthonormal filter pairs.

Every multiplex in this package is parameterized by a single scaling
filter g; the wavelet filter h follows mechanically, so a ``FilterPair``
is built from g alone and derives h itself. This script builds the two
builtins, derives a custom 6-tap system from lattice rotation angles,
and shows what the validator reports for a broken filter.

It also shows the form the transform actually runs: each pair's
paraunitary lattice, compiled once per pair. The lattice lives in the
private ``FilterPair._lattice``; multiplying it back out
(``wavelets._lattice_filters``) must give g and h again.
"""

import numpy as np

from wavemux import (
    FilterPair,
    NotOrthonormal,
    OddLength,
    check_orthonormality,
    derive_wavelet_filter,
    format_coefficients_csv,
    make_wavelet_system,
)
from wavemux.wavelets import _lattice_filters


def describe_lattice(pair: FilterPair) -> None:
    """Print the pair's lattice stages as angles, and check that they rebuild g and h."""
    lattice = pair._lattice
    (a, b), (c, d) = lattice.first
    kind = "rotation" if a * d - b * c > 0 else "reflection"
    # stage 0 is a scaled 2x2 rotation or reflection; every later stage the
    # butterfly [[t, 1], [1, -t]] after a one-sample advance, t = tan(angle)
    angles = [np.degrees(np.arctan2(b, a))] + [np.degrees(np.arctan(t)) for t, _ in lattice.stages]
    print(f"  lattice: {1 + len(lattice.stages)} stage(s); stage 0 a {kind},"
          f" angles (degrees) {np.round(angles, 6).tolist()}")
    g, h = _lattice_filters(lattice)
    miss = max(np.max(np.abs(g - pair.g)), np.max(np.abs(h - pair.h)))
    assert miss < 1e-12, f"the lattice misses {pair.name} by {miss:.1e}"
    print(f"  the stages multiplied out rebuild g and h to {miss:.1e}")


# ---------------------------------------------------------------------
# The builtins: the 2-tap Haar filter and the 4-tap Daubechies filter.
# ---------------------------------------------------------------------
for name in ("haar", "db4"):
    pair = make_wavelet_system(name)
    print(f"{name}: g = {format_coefficients_csv(pair.g)}")
    print(f"{' ' * len(name)}  h = {format_coefficients_csv(pair.h)}")
    print(f"{' ' * len(name)}  violations: {check_orthonormality(pair)}")
    describe_lattice(pair)

# ---------------------------------------------------------------------
# The wavelet filter is the alternating flip of the scaling filter:
# h[n] = (-1)^n g[L-1-n]. Its taps always sum to zero.
# ---------------------------------------------------------------------
g = make_wavelet_system("db4").g
h = derive_wavelet_filter(g)
print("\nalternating flip of db4:", np.round(h, 8))
print("sum of h:", h.sum())
# a pair takes g only and derives this h when it is built, so a g without
# a flip, of odd length, fails there
assert np.array_equal(FilterPair("db4", g).h, h)
try:
    FilterPair("odd", [0.5, 0.5, 0.5])
except OddLength as exc:
    print(f"odd filter: {exc}")

# ---------------------------------------------------------------------
# Any angle sequence summing to pi/4 parameterizes a valid orthonormal
# scaling filter through the two-channel lattice, so the mux is not tied
# to the builtins. Here is a 6-tap system from two random angles.
# ---------------------------------------------------------------------
rng = np.random.default_rng(7)
angles = [rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)]
angles.append(np.pi / 4 - sum(angles))

a = np.array([np.cos(angles[0]), np.sin(angles[0])])
b = np.array([-np.sin(angles[0]), np.cos(angles[0])])
for th in angles[1:]:
    a_pad = np.concatenate([a, [0.0, 0.0]])
    b_pad = np.concatenate([[0.0, 0.0], b])
    a, b = np.cos(th) * a_pad + np.sin(th) * b_pad, -np.sin(th) * a_pad + np.cos(th) * b_pad

custom = make_wavelet_system(a, name="lattice6")
print("\ncustom 6-tap system:", np.round(custom.g, 6))
print("violations:", check_orthonormality(custom))
# three angles in, three stages out: the compiled lattice is the one the
# angles describe, up to how each stage is normalized
describe_lattice(custom)
assert 1 + len(custom._lattice.stages) == len(angles)

# ---------------------------------------------------------------------
# A filter that fails validation: the report names each violated
# constraint with its residual instead of raising.
# ---------------------------------------------------------------------
broken = FilterPair("broken", np.array([0.9, 0.5]))
for violation in check_orthonormality(broken):
    print(f"broken filter: {violation.constraint} off by {violation.residual:.3e}")
# nor does it compile: no lattice reproduces a pair that is not paraunitary
try:
    broken._lattice
except NotOrthonormal as exc:
    print(f"broken filter: {exc}")
