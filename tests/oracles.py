"""Independent reference implementations used to cross-check the library.

Everything here is intentionally written the slow, obvious way (explicit
loops, no shared code with the package; the allocator oracle borrows only
its result types) so that agreement between the two is meaningful.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from wavemux.rateplan import Allocation, Slot


def lattice_scaling_filter(angles) -> np.ndarray:
    """Orthonormal scaling filter of length 2*len(angles) from rotation angles.

    The paraunitary lattice guarantees double-shift orthonormality for any
    angle choice; the DC gain comes out at sqrt(2) exactly when the angles
    sum to pi/4. One angle [pi/4] gives the 2-tap Haar filter and
    [pi/3, pi/4 - pi/3] the 4-tap Daubechies filter.
    """
    angles = list(angles)
    a = np.array([np.cos(angles[0]), np.sin(angles[0])])
    b = np.array([-np.sin(angles[0]), np.cos(angles[0])])
    for th in angles[1:]:
        a_pad = np.concatenate([a, [0.0, 0.0]])
        b_pad = np.concatenate([[0.0, 0.0], b])
        a, b = np.cos(th) * a_pad + np.sin(th) * b_pad, -np.sin(th) * a_pad + np.cos(th) * b_pad
    return a


def random_scaling_filter(rng: np.random.Generator, n_angles: int) -> np.ndarray:
    """Random admissible scaling filter of length 2*n_angles."""
    angles = rng.uniform(-np.pi, np.pi, n_angles)
    angles[-1] = np.pi / 4 - angles[:-1].sum()
    return lattice_scaling_filter(angles)


# ------------------------------------------------------------- compositions

def compositions_by_product_scan(levels: int) -> list[tuple[int, ...]]:
    """Literal brute force: scan every vector with n_j <= 2^j.

    Feasible up to about 5 levels; the search space is prod_j (2^j + 1).
    """
    total = 1 << levels
    weights = [1 << (levels - j) for j in range(1, levels + 1)]
    found = []
    for vec in itertools.product(*[range((1 << j) + 1) for j in range(1, levels + 1)]):
        if sum(map(operator.mul, vec, weights)) == total:
            found.append(vec)
    return found


def compositions_by_pruned_scan(levels: int) -> list[tuple[int, ...]]:
    """Pruned scan over the same vector space, ascending lexicographic.

    Keeps the explicit n_j <= 2^j bounds of the definition but cuts
    branches whose partial sum already exceeds the frame, which makes
    8 levels tractable. The last tier is solved by the constraint.
    """
    total = 1 << levels
    found: list[tuple[int, ...]] = []
    cur = [0] * levels

    def scan(j: int, remaining: int) -> None:
        if j == levels:  # a single tier: it takes the whole frame
            cur[-1] = remaining
            found.append(tuple(cur))
            return
        w = 1 << (levels - j)
        for n in range(min(remaining // w, 1 << j) + 1):
            cur[j - 1] = n
            if j + 1 < levels:
                scan(j + 1, remaining - n * w)
            elif remaining - n * w <= total:  # the last tier, bound n_J <= 2^J
                cur[-1] = remaining - n * w
                found.append(tuple(cur))

    scan(1, total)
    return found


# ----------------------------------------------------------- naive transform

def naive_analyze_level(x, g, h):
    """Direct triple-loop periodic correlation."""
    M = len(x)
    approx = [0.0] * (M // 2)
    detail = [0.0] * (M // 2)
    for k in range(M // 2):
        for n in range(len(g)):
            approx[k] += g[n] * x[(2 * k + n) % M]
            detail[k] += h[n] * x[(2 * k + n) % M]
    return np.array(approx), np.array(detail)


def naive_synthesize_level(approx, detail, g, h):
    """Direct coefficient-by-coefficient periodic scatter."""
    M = 2 * len(approx)
    y = [0.0] * M
    for k in range(len(approx)):
        for n in range(len(g)):
            y[(2 * k + n) % M] += g[n] * approx[k] + h[n] * detail[k]
    return np.array(y)


def direct_analyze_level(x, g, h):
    """Direct-form periodic correlation along the last axis of ``x`` (..., M):
    the kernel wavemux used before its lattice. It builds the periodic
    extension xe[i] = x[i mod M] (i < M + L - 2) and accumulates g[n] and
    h[n] times each strided slice xe[n : n + M : 2]."""
    x = np.asarray(x, dtype=float)
    M = x.shape[-1]
    xe = np.concatenate([x] * (1 + (len(g) - 2 + M - 1) // M), axis=-1)[..., : M + len(g) - 2]
    approx = sum(g[n] * xe[..., n : n + M : 2] for n in range(len(g)))
    detail = sum(h[n] * xe[..., n : n + M : 2] for n in range(len(g)))
    return approx, detail


def direct_synthesize_level(approx, detail, g, h):
    """Direct-form periodic scatter along the last axis, the exact adjoint of
    :func:`direct_analyze_level`: g[n] * approx + h[n] * detail is added into
    each strided slice of a zeroed extension, whose tail past M is then
    folded back onto the head."""
    approx, detail = np.asarray(approx, dtype=float), np.asarray(detail, dtype=float)
    M = 2 * approx.shape[-1]
    ye = np.zeros(approx.shape[:-1] + (M + len(g) - 2,))
    for n in range(len(g)):
        ye[..., n : n + M : 2] += g[n] * approx + h[n] * detail
    y = ye[..., :M].copy()
    for start in range(M, ye.shape[-1], M):
        tail = ye[..., start : start + M]
        y[..., : tail.shape[-1]] += tail
    return y


def naive_synthesize(details, approx, g, h):
    """Cascade of naive synthesis steps, deepest level first.

    ``details`` is ordered finest first, matching the library's frames.
    """
    cur = np.asarray(approx, dtype=float)
    for d in reversed(list(details)):
        cur = naive_synthesize_level(cur, np.asarray(d, dtype=float), g, h)
    return cur


def dense_synthesis_matrix(n: int, depth: int, g, h) -> np.ndarray:
    """The N x N synthesis operator, built column by column from unit
    coefficient vectors pushed through the naive cascade.

    Column ordering matches the flattened frame layout: level-1 detail,
    level-2 detail, ..., deepest detail, then the approximation.
    """
    sizes = [n >> j for j in range(1, depth + 1)] + [n >> depth]
    cols = []
    for block, size in enumerate(sizes):
        for i in range(size):
            parts = [np.zeros(s) for s in sizes]
            parts[block][i] = 1.0
            cols.append(naive_synthesize(parts[:-1], parts[-1], g, h))
    return np.stack(cols, axis=1)


def slot_walk_coefficients(allocation, samples_by_id, n: int) -> np.ndarray:
    """One frame's coefficients in the dense-matrix column order, placed by
    walking the allocation's bands: a slot of decimation m and phase p owns
    indices p, p + m, p + 2m, ... of its detail band, band by band from the
    finest, and the leaf channel fills the approximation.
    """
    blocks = []
    for level, slots in enumerate(allocation.bands, start=1):
        band = np.zeros(n >> level)
        for slot in slots:
            band[np.arange(slot.phase, band.size, slot.decimation)] = samples_by_id[slot.channel_id]
        blocks.append(band)
    approx = np.zeros(n >> len(allocation.bands))
    approx[:] = samples_by_id[allocation.leaf]
    blocks.append(approx)
    return np.concatenate(blocks)


# -------------------------------------------------------------- dsp helpers

def naive_dft_magnitude(x) -> np.ndarray:
    """O(N^2) direct evaluation of |sum_n x[n] exp(-2 pi i k n / N)|."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty(n)
    for k in range(n):
        acc = complex(0.0)
        for t in range(n):
            acc += x[t] * np.exp(-2j * np.pi * k * t / n)
        out[k] = abs(acc)
    return out


def quantizer_levels(resolution: int) -> np.ndarray:
    """All 2^B legal amplitudes of the offset-binary midrise mapping."""
    return quantizer_level(np.arange(1 << resolution), resolution)


def quantizer_level(words, resolution: int) -> np.ndarray:
    """The amplitudes of B-bit ``words``, (2w + 1 - 2^B) / 2^B: ``quantizer_levels(B)[words]``
    without a table of all 2^B levels."""
    scale = 1 << resolution
    return (2.0 * np.asarray(words) + 1.0 - scale) / scale


# --------------------------------------------------------- bit-array codec

class OracleOffGrid(Exception):
    """Raised by :func:`bit_array_dequantize`, with the library's OffGrid message and index."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


def bit_array_quantize(bits: np.ndarray, resolution: int) -> np.ndarray:
    """Samples of a uint8 array of 0/1 bits, B per word: the codec wavemux
    used before its packed-byte core. Each word is right-aligned in
    ceil(B/8) zero-padded bytes, so that one packbits yields it as
    big-endian bytes."""
    rows = bits.reshape(-1, resolution)
    nbytes = (resolution + 7) // 8
    padded = np.zeros((len(rows), 8 * nbytes), np.uint8)
    padded[:, 8 * nbytes - resolution :] = rows
    packed = np.packbits(padded).reshape(-1, nbytes)
    words = packed[:, 0].astype(np.uint32)
    for k in range(1, nbytes):
        words <<= 8
        words |= packed[:, k]
    scale = 1 << resolution
    samples = np.multiply(words, 2.0 / scale)
    samples += 1.0 / scale - 1.0
    return samples


def bit_array_dequantize(values, resolution: int) -> np.ndarray:
    """The uint8 0/1 bits of samples, decoded to the nearest level within
    the 2^-(B+1) guard band; the decoder wavemux used before its
    packed-byte core. Raises OracleOffGrid as the library raises OffGrid."""
    v = np.asarray(values, dtype=float)
    scale = 1 << resolution
    nearest = np.clip(np.rint((v * scale - 1.0 + scale) / 2.0), 0, scale - 1)
    levels = (2.0 * nearest + 1.0 - scale) / scale
    bad = ~(np.abs(v - levels) <= 0.5 / scale)
    if bad.any():
        k = int(np.argmax(bad))
        raise OracleOffGrid(
            f"{int(bad.sum())} of {v.size} samples off-grid at B={resolution};"
            f" first at index {k}: value {v[k]:.6g}",
            k,
        )
    # left-align each word in its ceil(B/8) big-endian bytes, then unpack B bits per row
    nbytes = (resolution + 7) // 8
    aligned = (nearest * float(1 << (8 * nbytes - resolution))).astype(">u4")
    rows = aligned.view(np.uint8).reshape(-1, 4)[:, 4 - nbytes :]
    return np.unpackbits(rows, axis=1, count=resolution).reshape(-1)


# ------------------------------------------------------------- decimal text

def per_row_decimal_text(rows) -> str:
    """One f-string per value: ``:.17g`` values, ``,`` between the columns
    of a row and ``\\n`` after it. The writer wavemux used before its
    block writer."""
    return "".join(",".join(f"{float(v):.17g}" for v in row) + "\n" for row in rows)


def per_token_decimals(text: str) -> np.ndarray:
    """One ``float()`` per token, tokens separated by commas and/or
    whitespace. The reader wavemux used before its one-cast reader."""
    return np.array([float(f) for f in text.replace(",", "\n").split()])


# ------------------------------------------------------------ band allocation

class _BuddyBand:
    """Free list of one detail band: (decimation, phase) chunks, split in halves on demand."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity          # units, power of two
        self.free = [(1, 0)]
        self.slots: list[Slot] = []

    def try_place(self, channel_id: str, units: int) -> bool:
        if units > self.capacity:
            return False
        target = self.capacity // units   # decimation of an exact-fit chunk
        fitting = [c for c in self.free if c[0] <= target]
        if not fitting:
            return False
        m, p = min(fitting, key=lambda c: c[1])  # lowest phase first
        self.free.remove((m, p))
        while m < target:
            # split (m, p) -> (2m, p) + (2m, p+m); keep the lower phase
            self.free.append((2 * m, p + m))
            m *= 2
        self.slots.append(Slot(channel_id, target, p))
        return True


def buddy_allocation(plan) -> Allocation:
    """A valid plan's allocation by a buddy allocator: the allocator wavemux
    used before its one-pass rule.

    Channels are taken in descending rate (declaration order breaking
    ties). Each is placed in the finest detail band holding a free buddy
    chunk of sufficient size, lowest phase first. When no band fits, the
    pending approximation node is handed to the channel whole if the
    sizes match, otherwise split one level deeper and the search retried.
    """
    order = sorted(plan.channels, key=lambda c: -c.rate)
    bands: list[_BuddyBand] = []
    approx_units = 1 << plan.levels
    leaf = None
    for ch in order:
        units = ch.rate // plan.basic_rate
        while not any(b.try_place(ch.id, units) for b in bands):
            assert leaf is None, "free capacity exhausted for a valid plan"
            if approx_units == units:
                leaf = ch.id
                break
            assert approx_units > units, "approximation node smaller than pending channel"
            bands.append(_BuddyBand(approx_units >> 1))
            approx_units >>= 1
    assert leaf is not None, "valid plans always terminate in a leaf"
    return Allocation(tuple(tuple(band.slots) for band in bands), leaf)
