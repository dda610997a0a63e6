"""Pyramid analysis and synthesis with periodic boundary handling.

One analysis step correlates the signal with the scaling and wavelet
filters and keeps every second output:

    approx[k] = sum_n g[n] * x[(2k + n) mod M]
    detail[k] = sum_n h[n] * x[(2k + n) mod M]        k = 0 .. M/2 - 1

One synthesis step is the exact adjoint: each coefficient scatters a
filter copy back onto the circle,

    x[n] = sum_k g[(n - 2k) mod M] * approx[k] + h[(n - 2k) mod M] * detail[k],

with the filter taken as zero outside 0..L-1 before the modular
placement. For an orthonormal pair the two steps invert each other
exactly, which is what makes circular convolution the right boundary
rule for fixed-length frames.

Both steps share one index layout, the periodic extension
xe[i] = x[i mod M] for i < M + L - 2, in which every tap reads or writes
the plain strided slice xe[n : n + M : 2]. Analysis gathers: it builds
xe and accumulates g[n] and h[n] times each slice. Synthesis
scatter-adds g[n] * approx + h[n] * detail into the same slices of a
zeroed buffer of that length, then folds the part past M back onto the
head (several times over when the filter is longer than the signal).
Each direction costs L * M/2 multiply-adds per filter per level; the
level lengths halve, so a whole cascade costs under L * N per filter,
linear in the frame length N.

The pair lives in two private kernels on bare float64 arrays,
``_analyze`` and ``_synthesize``. They index the last axis only
(``x[..., n : n + M : 2]``), so one pair transforms a single frame (M,)
and a block of frames (frames, M) alike. Each kernel forms every tap's
product in scratch it is handed rather than in a fresh temporary, and
sums in the same order as the formulas above.

The cascades keep a frame's coefficients in one flat (..., N) buffer:
the detail arrays finest first, then the approximation (Mallat's
layout, which ``FrameLayout.index`` addresses). ``_analyze_flat`` writes
each level's outputs straight into their slices of that buffer, and
``_synthesize_levels`` runs synthesis back up from views of it. Their
scratch comes from ``_scratch``: from 128 KiB up, memory each thread
keeps per role and reuses call after call, so transforming frame after
frame of one large size allocates only the synthesized signal. :func:`analyze`,
:func:`synthesize`, :func:`analyze_level` and :func:`synthesize_level`
wrap the cascades for callers that want a :class:`CoefficientFrame` or
a :class:`LevelPair`; the frame path in ``framing`` calls them on its
flat buffers directly.

Level numbering is finest-first: level 1 holds the longest detail array
(length N/2), level ``depth`` the shortest, and the approximation array
lives at level ``depth`` as well.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import BadDepth, LengthMismatch, MalformedFrame, OddLength
from .wavelets import FilterPair

__all__ = [
    "LevelPair",
    "CoefficientFrame",
    "analyze_level",
    "synthesize_level",
    "analyze",
    "synthesize",
]


@dataclass(frozen=True)
class LevelPair:
    """Approximation and detail coefficients of one decomposition level."""

    approx: np.ndarray
    detail: np.ndarray

    def __post_init__(self) -> None:
        approx = np.asarray(self.approx, dtype=float)
        detail = np.asarray(self.detail, dtype=float)
        object.__setattr__(self, "approx", approx)
        object.__setattr__(self, "detail", detail)
        if approx.ndim != 1 or detail.ndim != 1 or approx.size != detail.size or approx.size < 1:
            raise LengthMismatch(
                f"approx and detail must be equal-length 1-D arrays, got {approx.shape} and {detail.shape}"
            )


@dataclass(frozen=True)
class CoefficientFrame:
    """Dyadic coefficient tree for one frame of N samples.

    ``details[0]`` is the level-1 (finest) detail array of length N/2,
    each deeper level halves, and ``approx`` completes the deepest level.
    Total coefficient count is exactly N.
    """

    details: tuple[np.ndarray, ...]
    approx: np.ndarray

    def __post_init__(self) -> None:
        details = tuple(np.asarray(d, dtype=float) for d in self.details)
        approx = np.asarray(self.approx, dtype=float)
        object.__setattr__(self, "details", details)
        object.__setattr__(self, "approx", approx)

        if not details:
            raise MalformedFrame("a frame needs at least one detail level")
        if any(d.ndim != 1 for d in details) or approx.ndim != 1:
            raise MalformedFrame("coefficient arrays must be 1-D")
        top = details[0].size
        if top < 1:
            raise MalformedFrame("empty detail array")
        for j, d in enumerate(details, start=1):
            want = top >> (j - 1)
            if want < 1 or (top % (1 << (j - 1))) or d.size != want:
                raise MalformedFrame(
                    f"detail level {j} has {d.size} coefficients, expected {top} / 2^{j - 1}"
                )
        if approx.size != details[-1].size:
            raise MalformedFrame(
                f"approximation has {approx.size} coefficients, expected {details[-1].size}"
            )

    @property
    def depth(self) -> int:
        return len(self.details)

    @property
    def length(self) -> int:
        """Number of samples N of the signal this frame represents."""
        return 2 * self.details[0].size

    def coefficient_count(self) -> int:
        return sum(d.size for d in self.details) + self.approx.size

    def energy(self) -> float:
        """Sum of squares over every coefficient in the frame."""
        return float(sum(np.dot(d, d) for d in self.details) + np.dot(self.approx, self.approx))


def _analyze(x: np.ndarray, g: np.ndarray, h: np.ndarray, approx: np.ndarray, detail: np.ndarray,
             xe: np.ndarray, tmp: np.ndarray) -> None:
    """One analysis step along the last axis of float64 ``x`` (..., M), M even >= 2.

    Writes the (..., M/2) approximation and detail into ``approx`` and
    ``detail``. ``xe`` and ``tmp`` are scratch whose heads hold the
    periodic extension (M + L - 2) and one tap's products (M/2). ``x`` is
    read only while the extension is built, before either output is
    written, so the outputs may overlap ``x``.
    """
    M = x.shape[-1]
    xe = xe[..., : M + g.size - 2]
    tmp = tmp[..., : M // 2]
    for start in range(0, xe.shape[-1], M):  # xe[i] = x[i mod M], x repeated when L > M
        chunk = xe[..., start : start + M]
        chunk[...] = x[..., : chunk.shape[-1]]
    window = xe[..., 0:M:2]  # window[k] = x[(2k + n) mod M] for tap n = 0
    np.multiply(window, g[0], out=approx)
    np.multiply(window, h[0], out=detail)
    for n in range(1, g.size):  # every further tap's product goes through tmp
        window = xe[..., n : n + M : 2]
        approx += np.multiply(window, g[n], out=tmp)
        detail += np.multiply(window, h[n], out=tmp)


def _synthesize(approx: np.ndarray, detail: np.ndarray, g: np.ndarray, h: np.ndarray,
                ye: np.ndarray, tap: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """One synthesis step along the last axis of equal-shape float64 arrays.

    Returns the (..., M) signal, M twice their length, as a view of the
    head of ``ye``: scratch whose head holds the periodic extension
    (M + L - 2). ``tap`` and ``tmp`` are scratch whose heads hold one
    tap's products (M/2).
    """
    half = approx.shape[-1]
    M = 2 * half
    ye = ye[..., : M + g.size - 2]
    tap = tap[..., :half]
    tmp = tmp[..., :half]
    ye[...] = 0.0
    for n in range(g.size):
        np.multiply(approx, g[n], out=tap)
        tap += np.multiply(detail, h[n], out=tmp)
        ye[..., n : n + M : 2] += tap
    y = ye[..., :M]
    for start in range(M, ye.shape[-1], M):  # fold the tail back onto the circle
        tail = ye[..., start : start + M]
        y[..., : tail.shape[-1]] += tail
    return y


_SCRATCH = threading.local()
#: Smallest scratch request, in float64 elements (128 KiB), that ``_scratch``
#: serves from reused memory. Below it a fresh array is cheaper than the
#: lookup, and small blocks stay on the allocator's heap anyway.
_REUSED_FROM = 1 << 14


def _scratch(role: str, shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of ``shape`` to use as scratch for ``role``.

    Frames of one size are transformed over and over. Fresh multi-MB
    temporaries would cost page faults on every call whenever the
    allocator hands their pages back to the system between calls, so
    large requests get memory this thread keeps per role and reuses: the
    array is valid until this thread next asks for ``role``, and the
    memory kept is that of the largest request per role. The contents
    are undefined either way.
    """
    size = prod(shape)
    if size < _REUSED_FROM:
        return np.empty(shape)
    buf = _SCRATCH.__dict__.get(role)
    if buf is None or buf.size < size:
        buf = _SCRATCH.__dict__[role] = np.empty(size)
    return buf[:size].reshape(shape)


def _split(flat: np.ndarray, depth: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Views of a flat (..., N) coefficient buffer: (details finest first, approximation)."""
    n = flat.shape[-1]
    details = tuple([flat[..., n - 2 * (n >> level) : n - (n >> level)] for level in range(1, depth + 1)])
    return details, flat[..., n - (n >> depth) :]


def _analyze_flat(x: np.ndarray, depth: int, g: np.ndarray, h: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Run ``depth`` analysis steps along the last axis of ``x`` (..., N) into ``flat``.

    ``flat`` ends up holding the detail arrays finest first, then the
    approximation. Each level writes its approximation into the tail of
    ``flat`` that the next level splits in place, and every level works in
    the same two scratch arrays.
    """
    n = x.shape[-1]
    xe = _scratch("extension", x.shape[:-1] + (n + g.size - 2,))
    tmp = _scratch("products", x.shape[:-1] + (n // 2,))
    cur = x
    for level in range(1, depth + 1):
        half = n >> level
        approx = flat[..., n - half :]
        _analyze(cur, g, h, approx, flat[..., n - 2 * half : n - half], xe, tmp)
        cur = approx
    return flat


def _synthesize_levels(details, approx: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Run synthesis from the deepest level outward: the (..., N) signal.

    ``details`` lists the detail arrays finest first, as :func:`_split`
    returns them; the inverse of :func:`_analyze_flat`. The levels write
    their outputs into two extension arrays in turn, each reading the
    other's: odd levels into the array allocated here, which level 1
    leaves holding the result, even levels into scratch.
    """
    half = details[0].shape[-1]
    lead = approx.shape[:-1]
    extensions = (np.empty(lead + (2 * half + g.size - 2,)), _scratch("extension", lead + (half + g.size - 2,)))
    tap, tmp = _scratch("taps", lead + (half,)), _scratch("products", lead + (half,))
    cur = approx
    for level in range(len(details), 0, -1):
        cur = _synthesize(cur, details[level - 1], g, h, extensions[(level - 1) % 2], tap, tmp)
    return cur


def _check_signal(x: np.ndarray) -> None:
    if x.ndim != 1 or x.size < 2 or x.size % 2:
        raise OddLength(f"signal length must be even and >= 2, got {x.size}")


def analyze_level(x: np.ndarray, pair: FilterPair) -> LevelPair:
    """Split a signal of even length M into M/2 approximation and detail
    coefficients by periodic correlation with g and h."""
    x = np.asarray(x, dtype=float)
    _check_signal(x)
    flat = _analyze_flat(x, 1, pair.g, pair.h, np.empty(x.size))
    return LevelPair(flat[x.size // 2 :], flat[: x.size // 2])


def synthesize_level(lp: LevelPair, pair: FilterPair) -> np.ndarray:
    """Merge one level back into a signal of twice the length.

    Exact adjoint of the analysis step, hence the exact inverse for
    orthonormal pairs: coefficient k scatters tap n onto index
    (2k + n) mod M.
    """
    return _synthesize_levels((lp.detail,), lp.approx, pair.g, pair.h)


def analyze(x: np.ndarray, depth: int, pair: FilterPair) -> CoefficientFrame:
    """Run ``depth`` analysis steps on the running approximation.

    Requires 2^depth to divide len(x); raises BadDepth otherwise.
    """
    x = np.asarray(x, dtype=float)
    if depth < 1:
        raise BadDepth(f"depth must be >= 1, got {depth}")
    if x.ndim != 1 or x.size % (1 << depth):
        raise BadDepth(f"signal length {x.size} is not divisible by 2^{depth}")
    _check_signal(x)  # so every level down to depth has an even length >= 2
    return CoefficientFrame(*_split(_analyze_flat(x, depth, pair.g, pair.h, np.empty(x.size)), depth))


def synthesize(frame: CoefficientFrame, pair: FilterPair) -> np.ndarray:
    """Rebuild the length-N signal from a coefficient frame.

    Runs synthesis from the deepest node outward; inverts :func:`analyze`
    up to floating-point rounding for orthonormal pairs.
    """
    return _synthesize_levels(frame.details, frame.approx, pair.g, pair.h)
