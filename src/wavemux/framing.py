"""End-to-end multiplex and demultiplex of tributary payloads.

A frame travels inside the library as a TDM row: every channel's samples
concatenated in declaration order, N in all. The plan's frame layout
(``plan.layout``, compiled once per plan) says where each TDM sample
sits among the frame's wavelet coefficients, which live in the flat
buffer that ``mra.analyze`` returns and ``mra.synthesize`` takes. One
body runs each way, on one row (N,) or a block of rows (frames, N) alike,
each writing into its rows of the result. The transmit body is
``synthesize(assemble_frame(...))``: the scatter writes the flat
coefficients into the result itself, which synthesis reads before it
writes. The receive body is ``disassemble_frame(analyze(...))``: analysis
down to the leaf level writes every level into its slice of a flat
buffer, and the gather writes the result. Both bodies look those four
names up in this module when they run, so a wrapper bound to one of them
here sees every frame. The scatter and the gather are both
``np.take`` along the last axis, through ``layout.inverse`` and
``layout.index``. When the permutation is the identity
(``layout.in_order``, as for an octave ladder declared finest band
first), both return their input: synthesis reads the rows themselves,
and analysis writes straight into the result. At N = 2^18 the scatter
and the gather would be 2 MB copies that move every sample to where it
already was.

:func:`mux_frames` and :func:`demux_frames` hold the only frame loop.
They run the body over blocks of ``_BLOCK_SAMPLES // N`` frames (at
least one) into one preallocated ``(frames, N)`` result: a block's
buffers then stay in a 2 MiB L2 cache, where one call per frame pays
per-call overhead at every level and the whole batch at once spills out
of the cache. :func:`mux` and :func:`demux` run the same body once on
the 1-D row of one frame of payload objects, without stacking it into
(1, N): at N = 2^18 the extra full-length arrays, fresh memory on every
call, cost about a third of the single-frame throughput, and at N = 64 a
kernel call costs 30-45% more on a (1, M) array than on a 1-D one.
:func:`mux` fills that row (what :func:`tdm_row` returns) in the
transmit row that ``mra._scratch`` keeps for this thread, so from 128 KiB
up, steady traffic at one frame size allocates no full-size array but
the results: the synthesized line, and the recovered row that
:func:`demux` slices its payloads out of. Fresh arrays are fresh pages
whenever the allocator has given the memory back to the system since
the last call: at N = 2^18, in a loop that keeps each result until the
next frame's are made, the fresh TDM row and gathered row cost about 500
minor page faults per frame, and the in-order path with the reused row
none. Both transmit paths reject a row holding NaN or an infinity
(NonFiniteSample), which synthesis would otherwise spread over every
channel of the frame; ``demux_frames`` and ``demux`` in sample mode
reject a recovered one (OffGrid), which only a corrupt line leaves.
Every sample array enters through :func:`mra._real`, which refuses
complex and text dtypes (DataError) instead of casting them to float.

The codec runs once per frame, not once per channel: :func:`tdm_row`
joins the digital payloads' bits into one :func:`quantize_words` call,
and :func:`demux` decodes the whole row in one :func:`dequantize_samples`
call and slices each channel's bits out of the result. On small frames
each codec call is mostly fixed NumPy overhead. Errors are those of a
channel-by-channel pass: when the joined call fails, the channels are
checked again one by one in declaration order, so the first bad channel
raises its own error.

Binary words map to amplitudes by the offset-binary midrise rule

    v = (2 w + 1 - 2^B) / 2^B                w = 0 .. 2^B - 1,

which places the 2^B levels symmetrically inside (-1, 1) with step
2^(1-B). Decoding accepts a sample only within 2^-(B+1) of a level (half
the distance to the decision boundary), so reconstruction noise around
1e-10 never flips a bit while grossly off-grid samples, such as those
produced by demultiplexing with the wrong wavelet, are rejected.

One codec core works on packed bytes, the layout of a ``.bits`` file:
B-bit words back to back, most significant bit first. A run of
8/gcd(B, 8) words fills a whole number of bytes (two 12-bit words fill
three, eight 5-bit words five), so the bytes are read as a table with
one such group per row. ``_quantize_packed`` builds word j of every
group at once from the bytes it spans, by shifts and ORs over whole
columns, and ``_dequantize_packed`` runs the guard-band test in place in
two work arrays, then ORs every output byte together from the words
it holds bits of; neither makes a Python call per word. The public
``quantize_words`` and ``dequantize_samples`` keep bit strings at the
API and convert at the edge only: one ``np.packbits`` of the ASCII view
('0' = 48) on the way in, one ``np.unpackbits`` on the way out. The
command line calls the core on each channel's file bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import (
    BadLength,
    DuplicateChannel,
    MissingChannel,
    NonFiniteSample,
    OffGrid,
    PayloadLengthMismatch,
    ShapeMismatch,
)
from .mra import _real, _scratch, analyze, synthesize
# allocate_bands, plan_digest and validate_plan are unused here, but
# perfbench/tracing.py wraps them in this module by name
from .rateplan import FrameLayout, RatePlan, _check_resolution, allocate_bands, plan_digest, validate_plan  # noqa: F401
from .wavelets import FilterPair

__all__ = [
    "TributaryPayload",
    "MuxedSignal",
    "quantize_words",
    "dequantize_samples",
    "tdm_row",
    "assemble_frame",
    "disassemble_frame",
    "mux_frames",
    "demux_frames",
    "mux",
    "demux",
]


@dataclass(frozen=True)
class TributaryPayload:
    """One channel's content for one frame: a bit string or real samples.

    Exactly one of ``bits`` (digital mode, characters '0'/'1') and
    ``samples`` (sample mode, values nominally in [-1, 1)) is set.
    """

    id: str
    bits: str | None = None
    samples: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.bits is None) == (self.samples is None):
            raise ValueError(f"payload {self.id!r}: exactly one of bits/samples must be given")
        if self.samples is not None:
            object.__setattr__(self, "samples", _real(self.samples, f"channel {self.id!r}"))

    @classmethod
    def from_bits(cls, channel_id: str, bits: str) -> "TributaryPayload":
        return cls(id=channel_id, bits=bits)

    @classmethod
    def from_samples(cls, channel_id: str, samples: np.ndarray) -> "TributaryPayload":
        return cls(id=channel_id, samples=samples)

    @property
    def is_digital(self) -> bool:
        return self.bits is not None


@dataclass(frozen=True)
class MuxedSignal:
    """The multiplexed frame signal plus the digest of the plan behind it."""

    samples: np.ndarray
    plan_digest: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _real(self.samples, "signal"))

    def __len__(self) -> int:
        return self.samples.size


# ----------------------------------------------------------------- quantizer

def _group(resolution: int) -> tuple[int, int]:
    """(words, bytes) of the shortest run of B-bit words that ends on a byte boundary."""
    words = 8 // gcd(resolution, 8)
    return words, words * resolution // 8


def _quantize_packed(packed: np.ndarray, count: int, resolution: int) -> np.ndarray:
    """Map the first ``count`` B-bit words of packed bytes (MSB first) to samples in (-1, 1).

    The codec core behind :func:`quantize_words` and ``wavemux mux``.
    ``packed`` is a uint8 array of at least ceil(count * B / 8) bytes;
    bits past the last word are ignored. Callers have checked that the
    resolution is in 1..24 (a validated plan's B is).
    """
    g, nbytes = _group(resolution)
    groups = -(-count // g)
    data = packed[: groups * nbytes]
    if data.size < groups * nbytes:  # a short last group reads zero bytes past the end
        data = np.concatenate([data, np.zeros(groups * nbytes - data.size, np.uint8)])
    # byte k of every group in row k, so that each step below runs over contiguous memory
    rows = np.ascontiguousarray(data.reshape(groups, nbytes).T)
    scale = 1 << resolution
    samples = np.empty((groups, g))
    word = np.empty(groups, np.uint32)
    for j in range(g):
        first, last = j * resolution // 8, ((j + 1) * resolution - 1) // 8  # the bytes word j spans
        word[:] = rows[first]
        for k in range(first + 1, last + 1):
            word <<= 8
            word |= rows[k]
        if (j + 1) * resolution % 8:  # the word ends inside byte ``last``
            word >>= 8 - (j + 1) * resolution % 8
        if j * resolution % 8:  # byte ``first`` starts with bits of the word before
            word &= scale - 1
        out = samples[:, j]
        np.multiply(word, 2.0 / scale, out=out)
        out += 1.0 / scale - 1.0  # (2w + 1 - 2^B) / 2^B, exact
    return samples.reshape(-1)[:count]


def _pack_words(words: np.ndarray, resolution: int) -> np.ndarray:
    """Packed bytes (MSB first, the last one zero-padded) of B-bit words held as whole floats."""
    count = words.size
    g, nbytes = _group(resolution)
    whole, groups = count // g, -(-count // g)
    # word j of every group in row j, so that each step below runs over contiguous memory
    cols = np.empty((g, groups), np.uint32)
    cols[:, :whole] = words[: whole * g].reshape(whole, g).T
    if groups > whole:
        cols[:, whole] = 0
        cols[: count - whole * g, whole] = words[whole * g :]
    rows = np.empty((nbytes, groups), np.uint8)
    byte, part = np.empty((2, groups), np.uint32)
    for k in range(nbytes):
        first, last = 8 * k // resolution, (8 * k + 7) // resolution  # the words byte k holds bits of
        if first == last and (last + 1) * resolution == 8 * (k + 1):
            rows[k] = cols[last]  # byte k is the low 8 bits of one word
            continue
        for j in range(first, last + 1):
            shift = (j + 1) * resolution - 8 * (k + 1)  # how far word j ends past byte k
            dst = byte if j == first else part
            if shift >= 0:
                np.right_shift(cols[j], shift, out=dst)
            else:
                np.left_shift(cols[j], -shift, out=dst)
            if j > first:
                byte |= part
        rows[k] = byte  # the assignment keeps the low 8 bits
    return rows.T.reshape(-1)[: -(-count * resolution // 8)]


def _dequantize_packed(values: np.ndarray, resolution: int) -> np.ndarray:
    """Decode samples to packed bytes (MSB first); nearest level with guard band.

    The codec core behind :func:`dequantize_samples` and ``wavemux demux``.
    ``values`` may have any shape; its samples are read in order. Raises
    OffGrid, with ``index`` set to the first offending sample, if any
    sample lies farther than 2^-(B+1) from every legal level. Callers
    have checked the resolution, as for :func:`_quantize_packed`.
    """
    v = np.asarray(values, dtype=float)
    scale = float(1 << resolution)
    # w = clip(rint((v 2^B - 1 + 2^B) / 2), 0, 2^B - 1) and its level, in place
    nearest = v * scale
    nearest -= 1.0
    nearest += scale
    nearest /= 2.0
    np.rint(nearest, out=nearest)
    # clip to 0 .. 2^B - 1: np.clip gives the same words, but its argument
    # handling costs about 5 us a call, a quarter of a 64-sample decode
    np.maximum(nearest, 0.0, out=nearest)
    np.minimum(nearest, scale - 1.0, out=nearest)
    distance = nearest * 2.0
    distance += 1.0
    distance -= scale
    distance /= scale
    np.subtract(v, distance, out=distance)
    np.abs(distance, out=distance)
    on_grid = distance <= 0.5 / scale  # 2^-(B+1); NaN compares False, so it counts as off-grid
    if not on_grid.all():
        bad = ~on_grid.reshape(-1)
        k = int(np.argmax(bad))
        raise OffGrid(
            f"{int(bad.sum())} of {v.size} samples off-grid at B={resolution};"
            f" first at index {k}: value {v.flat[k]:.6g}",
            index=k,
        )
    return _pack_words(nearest.reshape(-1), resolution)


def quantize_words(bits: str, resolution: int) -> np.ndarray:
    """Map consecutive B-bit words (MSB first, unsigned) to samples in (-1, 1)."""
    _check_resolution(resolution)  # a bad resolution is reported before a bad character
    # '0'/'1' become 0/1; any other character, non-ASCII ones as '?', lands above 1
    u8 = np.frombuffer(bits.encode("ascii", "replace"), np.uint8) - 48
    if u8.max(initial=0) > 1:
        raise BadLength("bit strings may contain only '0' and '1'")
    if u8.size % resolution:
        raise BadLength(f"{u8.size} bits is not a multiple of {resolution}")
    return _quantize_packed(np.packbits(u8), u8.size // resolution, resolution)


def dequantize_samples(values: np.ndarray, resolution: int) -> str:
    """Decode samples back into the bit string; nearest-level with guard band.

    Raises OffGrid if any sample lies farther than 2^-(B+1) from every
    legal level.
    """
    _check_resolution(resolution)
    values = _real(values, "samples")
    packed = _dequantize_packed(values, resolution)
    return (np.unpackbits(packed, count=values.size * resolution) + 48).tobytes().decode("ascii")


# --------------------------------------------------------------- frame build

def _checked(payload: TributaryPayload, expected: int, resolution: int) -> str | np.ndarray:
    """The payload's bits or samples, once their length fits ``expected`` samples."""
    if payload.is_digital:
        if len(payload.bits) != expected * resolution:
            raise PayloadLengthMismatch(
                f"channel {payload.id!r}: {len(payload.bits)} bits, expected"
                f" {expected} samples * {resolution} bits"
            )
        return payload.bits
    if payload.samples.ndim != 1 or payload.samples.size != expected:
        raise PayloadLengthMismatch(
            f"channel {payload.id!r}: samples of shape {payload.samples.shape}, expected ({expected},)"
        )
    return payload.samples


def _index_payloads(plan: RatePlan, payloads) -> dict[str, TributaryPayload]:
    by_id: dict[str, TributaryPayload] = {}
    for p in payloads:
        if p.id in by_id:
            raise DuplicateChannel(f"payload for channel {p.id!r} given twice")
        by_id[p.id] = p
    declared = {c.id for c in plan.channels}
    missing = declared - set(by_id)
    if missing:
        raise MissingChannel(f"no payload for channel(s): {', '.join(sorted(missing))}")
    unknown = set(by_id) - declared
    if unknown:
        raise MissingChannel(f"payload(s) for undeclared channel(s): {', '.join(sorted(unknown))}")
    return by_id


def tdm_row(plan: RatePlan, payloads) -> np.ndarray:
    """One frame of payloads as its TDM row: the channels' samples in declaration order.

    Digital payloads are quantized with the plan's resolution, so the row
    holds exactly the N values that become the frame's coefficients. The
    digital payloads' bits are joined and quantized in one call.
    """
    return _fill_row(plan, payloads, np.empty(plan.blocklength))


def _fill_row(plan: RatePlan, payloads, row: np.ndarray) -> np.ndarray:
    """:func:`tdm_row` written into ``row`` (N,), which it returns."""
    bounds = plan.layout.bounds
    by_id = _index_payloads(plan, payloads)
    ordered = [by_id[ch.id] for ch in plan.channels]
    try:
        words, slots = [], []
        for payload, (lo, hi) in zip(ordered, bounds):
            content = _checked(payload, hi - lo, plan.resolution)
            if payload.is_digital:
                words.append(content)
                slots.append((lo, hi))
            else:
                row[lo:hi] = content
        if words:
            samples = quantize_words("".join(words), plan.resolution)
            start = 0
            for lo, hi in slots:
                row[lo:hi] = samples[start : start + hi - lo]
                start += hi - lo
    except (BadLength, PayloadLengthMismatch):
        # the joined call cannot tell whose word was bad: check channel by
        # channel, so that the first bad one in declaration order raises
        for payload, (lo, hi) in zip(ordered, bounds):
            content = _checked(payload, hi - lo, plan.resolution)
            if payload.is_digital:
                quantize_words(content, plan.resolution)
        raise
    return row


def _locate(plan: RatePlan, position: int) -> tuple[int, int, int]:
    """Where ``position`` in TDM rows read in order lies: (frame, channel
    number, sample within that channel's part of the frame)."""
    frame, k = divmod(position, plan.blocklength)
    bounds = plan.layout.bounds
    c = next(c for c, (lo, hi) in enumerate(bounds) if k < hi)
    return frame, c, k - bounds[c][0]


def _finite(plan: RatePlan, rows: np.ndarray, *, recovered: bool = False) -> np.ndarray:
    """``rows``, one TDM row or a ``(frames, N)`` array of them, once they hold no NaN or infinity.

    On the way in, synthesis would spread such a sample over its whole
    frame, and so over every channel at the receiver: NonFiniteSample
    names the channel of the first one. In ``recovered`` rows only a
    corrupt line leaves one, so OffGrid reports it as the decoder does for
    digital channels, with ``index`` at its position in the rows read in
    order.
    """
    finite = np.isfinite(rows)
    if not finite.all():
        first = int(np.argmin(finite))
        frame, c, k = _locate(plan, first)
        where = f"channel {plan.channels[c].id!r}, frame {frame}: sample {k} is {rows.reshape(-1)[first]}"
        if recovered:
            raise OffGrid(f"{where}; recovered samples must be finite", index=first)
        raise NonFiniteSample(f"{where}; samples must be finite", channel=plan.channels[c].id)
    return rows


def _permuted(layout: FrameLayout, x, index: np.ndarray | None, out: np.ndarray | None) -> np.ndarray:
    """``x`` (..., N) gathered through ``index`` along its last axis into ``out``, or ``x`` itself in order."""
    x = _real(x, "frames")
    if x.ndim < 1 or x.shape[-1] != layout.index.size:
        raise ShapeMismatch(f"frames of shape {x.shape} do not fit a layout of {layout.index.size} samples")
    if layout.in_order:
        return x
    # the index is a permutation, so "clip" never clips; the default
    # "raise" would gather into a temporary first and copy it to out
    return np.take(x, index, axis=-1, out=out, mode="clip")


def assemble_frame(layout: FrameLayout, rows, out: np.ndarray | None = None) -> np.ndarray:
    """Scatter TDM rows (..., N) into their flat coefficients (..., N), written into ``out`` when given.

    TDM sample i of each row becomes coefficient ``layout.index[i]``, by a
    gather through ``layout.inverse``. An in-order layout returns ``rows``
    itself and leaves ``out`` untouched.
    """
    return _permuted(layout, rows, layout.inverse, out)


def disassemble_frame(layout: FrameLayout, coeffs, out: np.ndarray | None = None) -> np.ndarray:
    """Gather TDM rows (..., N) out of flat coefficients (..., N); the inverse of :func:`assemble_frame`.

    Written into ``out`` when given; an in-order layout returns ``coeffs``
    itself and leaves ``out`` untouched.
    """
    return _permuted(layout, coeffs, layout.index, out)


# ------------------------------------------------------------------ mux/demux

#: Samples per block of frames in :func:`mux_frames`/:func:`demux_frames`.
#: A block's input, coefficient buffer and the transform's channel scratch
#: then take under 2 MB, so they stay in a 2 MiB L2 cache. On 64 frames of
#: 4096 samples (db4, J=6; 2 vCPUs, 2 MiB L2 per core) mux_frames and
#: demux_frames took 13.5 and 10.1 ms one frame per block, 5.7 and 4.9 ms
#: in blocks of 16, and 6.2-6.4 and 5.5-5.6 ms in blocks of 32 or 64.
_BLOCK_SAMPLES = 1 << 16


def _transmit(layout: FrameLayout, system: FilterPair, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Line frames (..., N) of TDM rows (..., N), written into contiguous ``out``: one scatter, then synthesis.

    The scatter writes the flat coefficients into ``out`` itself, which
    synthesis reads before it writes; in order, synthesis reads the rows.
    """
    return synthesize(assemble_frame(layout, rows, out), layout.depth, system, out)


def _receive(layout: FrameLayout, system: FilterPair, frames: np.ndarray, out: np.ndarray) -> np.ndarray:
    """TDM rows (..., N) of line frames (..., N), written into contiguous ``out``: analysis down to the leaf level, then one gather.

    In order, the coefficients already are the rows, and analysis writes
    straight into ``out``.
    """
    flat = out if layout.in_order else _scratch("coefficients", frames.shape)
    # a non-finite line sample turns into NaN on the way down; the decoder
    # reports it as OffGrid, so NumPy's warning would only repeat it
    with np.errstate(invalid="ignore", over="ignore"):
        flat = analyze(frames, layout.depth, system, flat)
    return disassemble_frame(layout, flat, out)


def _by_blocks(body, layout: FrameLayout, system: FilterPair, frames: np.ndarray) -> np.ndarray:
    """``body`` run over blocks of ``frames`` (frames, N), each into its rows of one (frames, N) result."""
    step = max(1, _BLOCK_SAMPLES // frames.shape[1])
    out = np.empty(frames.shape)
    for start in range(0, len(frames), step):
        body(layout, system, frames[start : start + step], out[start : start + step])
    return out


def mux_frames(plan: RatePlan, system: FilterPair, tdm) -> np.ndarray:
    """Multiplex a ``(frames, N)`` array of TDM rows into a line of frames * N samples."""
    tdm = _real(tdm, "TDM array")
    if tdm.ndim != 2 or len(tdm) < 1 or tdm.shape[1] != plan.blocklength:
        raise ShapeMismatch(f"TDM array of shape {tdm.shape}, plan expects (frames >= 1, {plan.blocklength})")
    return _by_blocks(_transmit, plan.layout, system, _finite(plan, tdm)).reshape(-1)


def demux_frames(plan: RatePlan, system: FilterPair, line) -> np.ndarray:
    """Recover the ``(frames, N)`` TDM rows from a line of whole frames.

    Analysis runs down to the allocation's leaf level only, so a leaf
    channel's raw samples are never decomposed further. A recovered NaN
    or infinity, which only a corrupt line leaves, raises OffGrid as in
    :func:`demux` with ``digital=False``.
    """
    n = plan.blocklength
    x = _real(line, "signal")
    if x.ndim != 1 or x.size < n or x.size % n:
        raise ShapeMismatch(f"signal has {x.size} samples, not a whole number of {n}-sample frames")
    return _finite(plan, _by_blocks(_receive, plan.layout, system, x.reshape(-1, n)), recovered=True)


def mux(plan: RatePlan, system: FilterPair, payloads) -> MuxedSignal:
    """Multiplex one frame of payloads into a length-N signal."""
    layout = plan.layout
    # the row lives in reused memory: from 128 KiB up, a fresh one would cost
    # page faults on every call, and only the synthesized line is returned
    row = _finite(plan, _fill_row(plan, payloads, _scratch("row", (plan.blocklength,))))
    line = _transmit(layout, system, row, np.empty(plan.blocklength))
    return MuxedSignal(line, layout.digest)


def demux(plan: RatePlan, system: FilterPair, signal, *, digital: bool = True) -> list[TributaryPayload]:
    """Recover every tributary from one multiplexed frame.

    With ``digital=True`` each channel is decoded back to bits (OffGrid
    names the offending channel); otherwise sample payloads are returned,
    once every recovered sample is finite (OffGrid names the channel of
    the first that is not).
    Payloads are listed in plan declaration order.
    """
    layout = plan.layout
    if isinstance(signal, MuxedSignal):
        if signal.plan_digest and signal.plan_digest != layout.digest:
            raise ShapeMismatch("signal was multiplexed under a different plan")
        signal = signal.samples
    x = _real(signal, "signal")
    if x.ndim != 1 or x.size != plan.blocklength:
        raise ShapeMismatch(f"signal has {x.size} samples, plan expects {plan.blocklength}")

    row = _receive(layout, system, x, np.empty(plan.blocklength))
    channels = list(zip(plan.channels, layout.bounds))
    if not digital:
        _finite(plan, row, recovered=True)
        return [TributaryPayload.from_samples(ch.id, row[lo:hi]) for ch, (lo, hi) in channels]
    b = plan.resolution
    try:
        bits = dequantize_samples(row, b)
    except OffGrid as exc:
        # the row's first off-grid sample lies in the first bad channel; decoding
        # that channel alone reports its own count and index
        _, c, _ = _locate(plan, exc.index)
        lo, hi = layout.bounds[c]
        try:
            _dequantize_packed(row[lo:hi], b)
        except OffGrid as inner:
            raise OffGrid(f"channel {plan.channels[c].id!r}: {inner}", index=inner.index) from inner
        raise
    return [TributaryPayload.from_bits(ch.id, bits[lo * b : hi * b]) for ch, (lo, hi) in channels]
