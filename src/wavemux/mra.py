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
``_analyze`` and ``_synthesize``; :func:`analyze` and :func:`synthesize`
run them level by level, and :func:`analyze_level` and
:func:`synthesize_level` are validating wrappers over them. Each kernel
forms every tap's product in one scratch buffer per level rather than in
a fresh temporary, and sums in the same order as the formulas above.

Level numbering is finest-first: level 1 holds the longest detail array
(length N/2), level ``depth`` the shortest, and the approximation array
lives at level ``depth`` as well.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _analyze(x: np.ndarray, g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One analysis step on a float64 array of even length M >= 2: (approx, detail)."""
    M = x.size
    xe = np.empty(M + g.size - 2)
    for start in range(0, xe.size, M):  # xe[i] = x[i mod M], x repeated when L > M
        chunk = xe[start : start + M]
        chunk[:] = x[: chunk.size]
    window = xe[0:M:2]  # window[k] = x[(2k + n) mod M] for tap n = 0
    approx = g[0] * window
    detail = h[0] * window
    tmp = np.empty(M // 2)  # every further tap's product, one tap at a time
    for n in range(1, g.size):
        window = xe[n : n + M : 2]
        approx += np.multiply(window, g[n], out=tmp)
        detail += np.multiply(window, h[n], out=tmp)
    return approx, detail


def _synthesize(approx: np.ndarray, detail: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One synthesis step from equal-length float64 arrays: the signal of twice their length."""
    M = 2 * approx.size
    ye = np.zeros(M + g.size - 2)
    tap = np.empty(approx.size)
    tmp = np.empty(approx.size)
    for n in range(g.size):
        np.multiply(approx, g[n], out=tap)
        tap += np.multiply(detail, h[n], out=tmp)
        ye[n : n + M : 2] += tap
    y = ye[:M]
    for start in range(M, ye.size, M):  # fold the tail back onto the circle
        tail = ye[start : start + M]
        y[: tail.size] += tail
    return y


def _check_signal(x: np.ndarray) -> None:
    if x.ndim != 1 or x.size < 2 or x.size % 2:
        raise OddLength(f"signal length must be even and >= 2, got {x.size}")


def analyze_level(x: np.ndarray, pair: FilterPair) -> LevelPair:
    """Split a signal of even length M into M/2 approximation and detail
    coefficients by periodic correlation with g and h."""
    x = np.asarray(x, dtype=float)
    _check_signal(x)
    return LevelPair(*_analyze(x, pair.g, pair.h))


def synthesize_level(lp: LevelPair, pair: FilterPair) -> np.ndarray:
    """Merge one level back into a signal of twice the length.

    Exact adjoint of the analysis step, hence the exact inverse for
    orthonormal pairs: coefficient k scatters tap n onto index
    (2k + n) mod M.
    """
    return _synthesize(lp.approx, lp.detail, pair.g, pair.h)


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
    details: list[np.ndarray] = []
    cur = x
    for _ in range(depth):
        cur, detail = _analyze(cur, pair.g, pair.h)
        details.append(detail)
    return CoefficientFrame(tuple(details), cur)


def synthesize(frame: CoefficientFrame, pair: FilterPair) -> np.ndarray:
    """Rebuild the length-N signal from a coefficient frame.

    Runs synthesis from the deepest node outward; inverts :func:`analyze`
    up to floating-point rounding for orthonormal pairs.
    """
    cur = frame.approx
    for detail in reversed(frame.details):
        cur = _synthesize(cur, detail, pair.g, pair.h)
    return cur
