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

1. stage 0 mixes each pair of samples (x[2k], x[2k + 1]) by the
   first-stage matrix ``first`` into two channels of scratch: one
   product, ``first`` times the (2, M/2) transpose of the input seen as
   (M/2, 2) pairs, so no pass reads the even or the odd samples apart;
2. the channels are extended periodically by K - 1 samples (copied from
   their heads, in a loop only when K - 1 > M/2);
3. each further stage advances channel ``delayed`` by one sample, a view
   shifted by one, and forms X' = t X + Y and Y' = X - t Y in four passes
   in place, with |t| <= 1;
4. the last stage writes the approximation and the detail.

Synthesis runs the same stages backwards on the channels extended at
their heads, each stage its own inverse up to a scale folded into the
first stage, and ends with one product through the transpose of
``first``: the two channels seen as (M/2, 2) pairs times ``first``,
written straight into the output seen as (M/2, 2) pairs. A level of M
samples costs (L/2 + 1) * M multiplies each way, against L * M for the
direct form (plus (K - 1)(K - 2) on the periodic extension for K > 2),
of which stage 0's product makes 2M: db4 takes 3M instead of 4M, and
analysis makes one product over the M samples and 4 passes over M/2
samples, against 14 passes over M/2 for the direct form. The level
lengths halve, so a whole cascade costs under (L + 2) * N, linear in
the frame length N.
Haar is its first stage alone, the butterfly [[a, a], [a, -a]] with
a = 1/sqrt(2).

The pair lives in two private kernels on bare float64 arrays,
``_analyze`` and ``_synthesize``. They index the last axis only, so one
pair transforms a single frame (M,) and a block of frames (frames, M)
alike. Their scratch is one array (..., 3, M/2 + K - 1): each row holds
a channel or one stage's products, so the two channels of a product are
one slice of it. Analysis puts its channels in rows 0 and 1. Synthesis
takes the approximation in any row but ``home`` (row 1 at the deepest
level) and copies the detail into home; each stage then writes one
output into the free row and adds the other into home, both at offset
0, so home never comes free. The stage undone last, ``stages[0]``,
adds the approximation channel into home when it does not delay and
the detail channel when it does, so home is 0 in the first case and 2
otherwise, and the final two channels always lie in ascending rows: one
slice with a positive step. Analysis reads its input only in stage 0,
before it writes any output, so a level may write over the
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
work in the scratch rows, 3 * (N/2 + K - 1) floats per frame, from
``_scratch``: memory each thread keeps and reuses call after call, so
transforming frame after frame of one size into a given ``out``
allocates no array of that size.

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


def _analyze(x: np.ndarray, lattice: _Lattice, approx: np.ndarray, detail: np.ndarray, channels: np.ndarray) -> None:
    """One analysis step along the last axis of float64 ``x`` (..., M), M even >= 2.

    Writes the (..., M/2) approximation and detail into ``approx`` and
    ``detail``. ``channels`` (..., 3, >= M/2 + K - 1) is scratch: its rows
    hold the step's two channels and one stage's products. ``x`` is read
    only by stage 0, before either output is written, so the outputs may
    overlap ``x``.
    """
    lead, half = x.shape[:-1], x.shape[-1] // 2
    stages = lattice.stages
    n = half + len(stages)
    # stage 0: rows 0 and 1 = first @ (x[2k], x[2k + 1]), one product over the pair view
    pq = channels[..., 0:2, :n]
    np.matmul(lattice.first, x.reshape(lead + (half, 2)).swapaxes(-1, -2), out=pq[..., :half])
    p, q, tmp = pq[..., 0, :], pq[..., 1, :], channels[..., 2, :]
    if not stages:
        approx[...] = p
        detail[...] = q
        return
    for start in range(half, n, half):  # channel[i] = channel[i mod M/2], repeated when K - 1 > M/2
        pq[..., start : start + half] = pq[..., : min(half, n - start)]
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


def _synthesize(detail: np.ndarray, lattice: _Lattice, channels: np.ndarray, row: int, out: np.ndarray | None) -> int:
    """One synthesis step along the last axis, from scratch that holds the approximation.

    ``channels`` (..., 3, >= M/2 + K - 1) is scratch whose row ``row``
    holds the approximation at ``[..., K - 1 : K - 1 + M/2]``; ``row`` is
    1 for the deepest level and the returned row after that. ``detail``
    (..., M/2) is copied into scratch before anything is written, so it
    may overlap ``out``. The (..., M) signal goes into ``out``, or with
    None into the row the step leaves free, at ``[..., K - 1 : K - 1 + M]``:
    where the next level finds its approximation. Returns that row.
    """
    half = detail.shape[-1]
    stages = lattice.stages
    e = len(stages)
    n = half + e
    # each stage writes one output into the free row and adds the other into
    # row home, so home never comes free; stages[0], undone last, adds the
    # approximation channel into home when it does not delay, so with home 0
    # then and 2 otherwise the final channels lie in ascending rows
    home = 0 if stages and not stages[0][1] else 2
    c0, c1, free = row, home, 3 - row - home
    channels[..., home, e:n] = detail
    lo, hi = sorted((row, home))
    both = channels[..., lo : hi + 1 : hi - lo, :]
    for stop in range(e, 0, -half):  # channel[i] = channel[i + M/2] ahead of the input, repeated when K - 1 > M/2
        start = max(0, stop - half)
        both[..., start:stop] = both[..., start + half : stop + half]
    for t, delayed in reversed(stages):
        n -= 1  # undoing an advance moves that channel one sample later
        u, v, f = channels[..., c0, : n + 1], channels[..., c1, : n + 1], channels[..., free, :n]
        if delayed:  # X = t u[1:] + v[1:] into the free row, Y = u - t v
            np.multiply(u[..., 1:], t, out=f)
            f += v[..., 1:]
            u, v = u[..., :n], np.multiply(v[..., :n], -t, out=v[..., :n])
        else:  # Y = u[1:] - t v[1:] into the free row, X = t u + v
            np.multiply(v[..., 1:], -t, out=f)
            f += u[..., 1:]
            u, v = np.multiply(u[..., :n], t, out=u[..., :n]), v[..., :n]
        np.add(u, v, out=u if home == c0 else v)
        c0, c1, free = (free, home, c0 + c1 - home) if delayed else (home, free, c0 + c1 - home)
    pair = channels[..., c0 : c1 + 1 : c1 - c0, :half]
    dest = channels[..., free, e : e + 2 * half] if out is None else out
    # through the transpose of the first stage: (x[2k], x[2k + 1]) = (c0[k], c1[k]) @ first
    np.matmul(pair.swapaxes(-1, -2), lattice.first, out=dest.reshape(dest.shape[:-1] + (half, 2)))
    return free


_SCRATCH = threading.local()


def _scratch(role: str, shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of ``shape`` to use as scratch for ``role``.

    Frames of one size are transformed over and over. Fresh multi-MB
    temporaries would cost page faults on every call whenever the
    allocator hands their pages back to the system between calls, so
    every request gets memory this thread keeps per role and reuses: the
    array is valid until this thread next asks for ``role``, and the
    memory kept is that of the largest request per role. The contents
    are undefined.
    """
    size = prod(shape)
    buf = _SCRATCH.__dict__.get(role)
    if buf is None or buf.size < size:
        buf = _SCRATCH.__dict__[role] = np.empty(size)
    return buf[:size].reshape(shape)


def _lattice_scratch(pair: FilterPair, lead: tuple[int, ...], half: int) -> tuple[_Lattice, np.ndarray]:
    """``pair``'s lattice and the kernels' scratch (..., 3, half + K - 1) for levels of up to ``2 * half`` samples."""
    lattice = pair._lattice
    return lattice, _scratch("channels", lead + (3, half + len(lattice.stages)))


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
    lattice, channels = _lattice_scratch(pair, x.shape[:-1], n // 2)
    cur = x
    for level in range(1, depth + 1):
        half = n >> level
        approx = out[..., n - half :]
        _analyze(cur, lattice, approx, out[..., n - 2 * half : n - half], channels)
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
    lattice, channels = _lattice_scratch(pair, coeffs.shape[:-1], n // 2)
    e, row = len(lattice.stages), 1
    channels[..., row, e : e + (n >> depth)] = coeffs[..., n - (n >> depth) :]
    for level in range(depth, 0, -1):
        half = n >> level
        row = _synthesize(coeffs[..., n - 2 * half : n - half], lattice, channels, row, out if level == 1 else None)
    return out
