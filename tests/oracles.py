"""Independent reference implementations used to cross-check the library.

Everything here is intentionally written the slow, obvious way (explicit
loops, no shared code with the package) so that agreement between the two
is meaningful.
"""

from __future__ import annotations

import itertools

import numpy as np


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
    found = []
    for vec in itertools.product(*[range((1 << j) + 1) for j in range(1, levels + 1)]):
        if sum(n << (levels - j) for j, n in enumerate(vec, start=1)) == total:
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
        if j == levels:
            if remaining <= (1 << levels):
                cur[-1] = remaining
                found.append(tuple(cur))
            return
        w = 1 << (levels - j)
        for n in range(min(remaining // w, 1 << j) + 1):
            cur[j - 1] = n
            scan(j + 1, remaining - n * w)

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


def slot_walk_coefficients(tree, samples_by_id, n: int) -> np.ndarray:
    """One frame's coefficients in the dense-matrix column order, placed by
    walking the allocation tree: a slot of decimation m and phase p owns
    indices p, p + m, p + 2m, ... of its detail band, band by band from the
    finest, and the leaf channel fills the approximation.
    """
    blocks = []
    node, level = tree, 0
    while hasattr(node, "child"):
        level += 1
        band = np.zeros(n >> level)
        for slot in node.band:
            band[np.arange(slot.phase, band.size, slot.decimation)] = samples_by_id[slot.channel_id]
        blocks.append(band)
        node = node.child
    approx = np.zeros(n >> level)
    approx[:] = samples_by_id[node.channel_id]
    blocks.append(approx)
    return np.concatenate(blocks)


def flatten_frame(details, approx) -> np.ndarray:
    """Concatenate frame blocks in the dense-matrix column order."""
    return np.concatenate([np.asarray(d, dtype=float) for d in details] + [np.asarray(approx, dtype=float)])


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
    scale = 1 << resolution
    return (2.0 * np.arange(scale) + 1.0 - scale) / scale


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
