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

Neither step is computed in that direct form. Every orthonormal pair of
length L = 2K is a paraunitary lattice (Vaidyanathan & Hoang, 1988):
``FilterPair._lattice``, compiled once per pair (see
``wavelets._compile_lattice``), holds a 2 x 2 first stage and K - 1
further stages ``(t, delayed)``. One analysis step:

1. stage 0 reads the even and odd samples x[2k] and x[2k + 1] into two
   channels of scratch, mixed by the first-stage matrix;
2. the channels are extended periodically by K - 1 samples (copied from
   their heads, in a loop only when K - 1 > M/2);
3. each further stage advances channel ``delayed`` by one sample, a view
   shifted by one, and forms X' = t X + Y and Y' = X - t Y in four passes
   in place, with |t| <= 1;
4. the last stage writes the approximation and the detail.

Synthesis runs the same stages backwards on the channels extended at
their heads, each stage its own inverse up to a scale folded into the
first stage, and ends by writing the even and odd samples of its output
through the transpose of the first-stage matrix. A level of M samples
costs (L/2 + 1) * M multiplies each way, against L * M for the direct
form: db4 takes 3M instead of 4M, and 10 passes over M/2 samples for
analysis instead of 14. The level lengths halve, so a whole cascade
costs under (L + 2) * N, linear in the frame length N. Haar is its
first stage alone, the butterfly [[a, a], [a, -a]] with a = 1/sqrt(2).

The pair lives in two private kernels on bare float64 arrays,
``_analyze`` and ``_synthesize``. They index the last axis only
(``x[..., 0::2]``), so one pair transforms a single frame (M,) and a
block of frames (frames, M) alike. Analysis reads its input only in
stage 0, before it writes any output, so a level may write over the
approximation it splits.

The public pair, :func:`analyze` and :func:`synthesize`, keeps a frame's
coefficients in one flat (..., N) buffer: the detail arrays finest
first, then the approximation (Mallat's layout, which
``FrameLayout.index`` addresses). It is the only coefficient
representation: the frame path in ``framing`` calls these two names on
its blocks of rows, and a single frame is the block with no leading
axis. :func:`analyze` writes each level's outputs straight into their
slices of the buffer, and :func:`synthesize` runs synthesis back up
from views of it into an output of exactly N floats per frame. Every
synthesis level but the last writes its output into the scratch array
it has just freed, at the place where the next level reads its
approximation, and every level copies its detail into scratch before it
writes, so the coefficients may be the output itself. Both cascades
work in three scratch arrays of N/2 + K - 1 floats per frame, from
``_scratch``: from 128 KiB up, memory each thread keeps and reuses call
after call, so transforming frame after frame of one large size into a
given ``out`` allocates no array of that size.

Level numbering is finest-first: level 1 holds the longest detail array
(length N/2), level ``depth`` the shortest, and the approximation array
lives at level ``depth`` as well.
"""

from __future__ import annotations

import threading
from math import prod

import numpy as np

from .errors import BadDepth, DataError
from .wavelets import FilterPair, _Lattice

__all__ = ["analyze", "synthesize"]


def _analyze(x: np.ndarray, lattice: _Lattice, approx: np.ndarray, detail: np.ndarray, scratch) -> None:
    """One analysis step along the last axis of float64 ``x`` (..., M), M even >= 2.

    Writes the (..., M/2) approximation and detail into ``approx`` and
    ``detail``. ``scratch`` is three arrays (..., >= M/2 + K - 1) that the
    step uses for its two channels and one stage's products. ``x`` is read
    only by stage 0, before either output is written, so the outputs may
    overlap ``x``.
    """
    half = x.shape[-1] // 2
    a, b, c, d = lattice.first
    stages = lattice.stages
    n = half + len(stages)
    p, q, tmp = scratch
    p, q, product = p[..., :n], q[..., :n], tmp[..., :half]
    head = p[..., :half]
    np.multiply(x[..., 0::2], a, out=head)
    head += np.multiply(x[..., 1::2], b, out=product)
    head = q[..., :half]
    np.multiply(x[..., 0::2], c, out=head)
    head += np.multiply(x[..., 1::2], d, out=product)
    if not stages:
        approx[...] = p
        detail[...] = q
        return
    for start in range(half, n, half):  # channel[i] = channel[i mod M/2], repeated when K - 1 > M/2
        p[..., start : start + half] = p[..., : min(half, n - start)]
        q[..., start : start + half] = q[..., : min(half, n - start)]
    last = len(stages) - 1
    for k, (t, delayed) in enumerate(stages):
        m = n - 1 - k  # each stage reads one sample of its advanced channel past the other
        x_, y_ = (p[..., 1:], q[..., :m]) if delayed == 0 else (p[..., :m], q[..., 1:])
        first, second = (approx, detail) if k == last else (tmp[..., :m], x_)
        np.multiply(x_, t, out=first)
        first += y_
        np.multiply(y_, -t, out=y_)
        np.add(x_, y_, out=second)
        p, q, tmp = first, second, y_


def _synthesize(detail: np.ndarray, lattice: _Lattice, scratch, out: np.ndarray | None):
    """One synthesis step along the last axis, from scratch that holds the approximation.

    ``scratch`` is three arrays (p, q, free) of shape (..., >= M/2 + K - 1),
    where ``p[..., K - 1 : K - 1 + M/2]`` holds the approximation; ``detail``
    (..., M/2) is copied into ``q`` before anything is written, so it may
    overlap ``out``. The (..., M) signal goes into ``out``, or with None
    into the array the step leaves free, at ``[..., K - 1 : K - 1 + M]``:
    where the next level finds its approximation. Returns the three
    arrays in the order the next level takes them, that one first.
    """
    p, q, free = scratch
    half = detail.shape[-1]
    a, b, c, d = lattice.first
    stages = lattice.stages
    e = len(stages)
    n = half + e
    q[..., e:n] = detail
    for stop in range(e, 0, -half):  # channel[i] = channel[i + M/2] ahead of the input, repeated when K - 1 > M/2
        start = max(0, stop - half)
        p[..., start:stop] = p[..., start + half : stop + half]
        q[..., start:stop] = q[..., start + half : stop + half]
    c0, c1 = p[..., :n], q[..., :n]
    for t, delayed in reversed(stages):
        n -= 1  # undoing an advance moves that channel one sample later
        (f0, s0), (f1, s1) = (c0[..., :n], c1[..., :n]), (c0[..., 1:], c1[..., 1:])
        if delayed:
            (f0, s0), (f1, s1) = (f1, s1), (f0, s0)
        x_ = free[..., :n]
        np.multiply(f0, t, out=x_)
        x_ += s0
        np.multiply(s1, -t, out=s1)
        f1 += s1
        c0, c1, p, q, free = x_, f1, free, p, q  # p and q stay the arrays under c0 and c1
    dest = free[..., e : e + 2 * half] if out is None else out
    even, odd = dest[..., 0::2], dest[..., 1::2]
    # through the transpose of the first stage; c1 is scratch, so it holds a product once read
    np.multiply(c1, c, out=odd)
    np.multiply(c0, a, out=even)
    even += odd
    np.multiply(c1, d, out=c1)
    np.multiply(c0, b, out=odd)
    odd += c1
    return free, p, q


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


def _lattice_scratch(pair: FilterPair, lead: tuple[int, ...], half: int) -> tuple[_Lattice, tuple[np.ndarray, ...]]:
    """``pair``'s lattice and the kernels' three scratch arrays for levels of up to ``2 * half`` samples."""
    lattice = pair._lattice
    return lattice, tuple(_scratch("channels", (3,) + lead + (half + len(lattice.stages),)))


def _real(values, what: str) -> np.ndarray:
    """``values`` as a float array, once its dtype is boolean, integer or real.

    A cast to float would drop the imaginary part of complex samples
    (NumPy warns, nothing more) and parse text, so both are refused with
    DataError, as is any other dtype; ``what`` names the array in the
    message. A float64 array is returned as it is.
    """
    x = np.asarray(values)
    if x.dtype.kind not in "biuf":
        raise DataError(f"{what}: samples must be real numbers, got dtype {x.dtype}")
    return x.astype(float, copy=False)


def _checked(x, depth: int, what: str) -> np.ndarray:
    """``x`` as a float64 array, once it is real (:func:`_real`) and ``depth`` levels fit its last axis (BadDepth)."""
    x = _real(x, what)
    n = x.shape[-1] if x.ndim else 0
    if depth < 1:
        raise BadDepth(f"depth must be >= 1, got {depth}")
    if n == 0 or (n >> depth) << depth != n:  # shifts, so that a huge depth costs no huge 2^depth
        raise BadDepth(f"signal length {n} is not a positive multiple of 2^{depth}")
    return x


def analyze(x, depth: int, pair: FilterPair, out: np.ndarray | None = None) -> np.ndarray:
    """Run ``depth`` analysis steps along the last axis of ``x`` (..., N).

    Returns the flat coefficients (..., N): the detail arrays finest
    first, then the approximation, written into ``out`` when it is given.
    Each level writes its approximation into the tail of the buffer that
    the next level splits in place, and every level works in the same
    scratch. Level 1 reads ``x`` before it writes, so ``out`` may be ``x``
    itself. Raises DataError for a complex or text ``x``, and BadDepth
    unless depth >= 1 and 2^depth divides N.
    """
    x = _checked(x, depth, "signal")
    n = x.shape[-1]
    if out is None:
        out = np.empty(x.shape)
    lattice, scratch = _lattice_scratch(pair, x.shape[:-1], n // 2)
    cur = x
    for level in range(1, depth + 1):
        half = n >> level
        approx = out[..., n - half :]
        _analyze(cur, lattice, approx, out[..., n - 2 * half : n - half], scratch)
        cur = approx
    return out


def synthesize(coeffs, depth: int, pair: FilterPair, out: np.ndarray | None = None) -> np.ndarray:
    """Rebuild the signals (..., N) from flat coefficients (..., N); the inverse of :func:`analyze`.

    Runs synthesis from the deepest level outward, written into ``out``
    when it is given. Every level copies its inputs into scratch before it
    writes, and only level 1 writes ``out``, so ``out`` may be ``coeffs``
    itself. Inverts :func:`analyze` up to floating-point rounding for
    orthonormal pairs, and raises DataError and BadDepth as it does.
    """
    coeffs = _checked(coeffs, depth, "coefficients")
    n = coeffs.shape[-1]
    if out is None:
        out = np.empty(coeffs.shape)
    lattice, scratch = _lattice_scratch(pair, coeffs.shape[:-1], n // 2)
    e = len(lattice.stages)
    scratch[0][..., e : e + (n >> depth)] = coeffs[..., n - (n >> depth) :]
    for level in range(depth, 0, -1):
        half = n >> level
        scratch = _synthesize(coeffs[..., n - 2 * half : n - half], lattice, scratch, out if level == 1 else None)
    return out
