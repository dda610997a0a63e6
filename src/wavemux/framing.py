"""End-to-end multiplex and demultiplex of tributary payloads.

A frame travels inside the library as a TDM row: every channel's samples
concatenated in declaration order, N in all. The plan's frame layout
(``plan.layout``, compiled once per plan) says where each TDM sample
sits among the frame's wavelet coefficients. One cascade body runs each
way, on one row (N,) or a block of rows (frames, N) alike: the transmit
body scatters the rows through ``layout.index`` into a flat coefficient
buffer and synthesizes from views of it; the receive body analyzes down
to the leaf level with every level written into its slice of a flat
buffer, then gathers once through ``layout.index``. Neither builds a
:class:`CoefficientFrame`; :func:`assemble_frame` and
:func:`disassemble_frame` remain for callers that want one.

:func:`mux_frames` and :func:`demux_frames` hold the only frame loop.
They run the body over blocks of ``_BLOCK_SAMPLES // N`` frames (at
least one) into one preallocated ``(frames, N)`` result: a block's
buffers then stay in a 2 MiB L2 cache, where one call per frame pays
per-call overhead at every level and the whole batch at once spills out
of the cache. :func:`mux` and :func:`demux` run the same body once on
the 1-D row of one frame of payload objects (:func:`tdm_row` turns them
into a row), without stacking it into (1, N): at N = 2^18 the extra
full-length arrays, fresh memory on every call, cost about a third of
the single-frame throughput, and at N = 64 a kernel call costs 30-45%
more on a (1, M) array than on a 1-D one. Both transmit paths reject a
row holding NaN or an infinity (NonFiniteSample), which synthesis would
otherwise spread over every channel of the frame; ``demux`` in sample
mode rejects a recovered one (OffGrid), which only a corrupt line leaves.

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

One codec core does the bit work on uint8 arrays of 0/1:
``_quantize_bits`` packs B-bit words with ``np.packbits`` and
``_dequantize_bits`` runs the guard-band test and unpacks the words with
``np.unpackbits``, with no Python loop per word. The public
``quantize_words`` and ``dequantize_samples`` keep bit strings at the API
and only view them as ASCII bytes ('0' = 48) on the way in and out; the
command line calls the core directly on whole file streams.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# analyze and synthesize are unused here, but perfbench/tracing.py wraps them
# in this module by name
from .mra import CoefficientFrame, _analyze_flat, _scratch, _split, _synthesize_levels, analyze, synthesize  # noqa: F401
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
            object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))

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
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))

    def __len__(self) -> int:
        return self.samples.size


# ----------------------------------------------------------------- quantizer

_QUANTIZE_BLOCK = 1 << 14  # words per packbits pass: a padded block of at most 384 KB


def _quantize_bits(bits: np.ndarray, resolution: int) -> np.ndarray:
    """Map a uint8 array of 0/1 bits, B per word, to samples in (-1, 1).

    The codec core behind :func:`quantize_words`; callers have checked
    that every element is 0 or 1 and that the resolution is in 1..24
    (a validated plan's B is).
    """
    if bits.size % resolution:
        raise BadLength(f"{bits.size} bits is not a multiple of {resolution}")
    # right-align each word in ceil(B/8) zero-padded bytes, so that one flat
    # packbits yields every word as big-endian bytes; going block by block
    # keeps the padded copy small whatever the stream length
    rows = bits.reshape(-1, resolution)
    nbytes = (resolution + 7) // 8
    padded = np.zeros((min(len(rows), _QUANTIZE_BLOCK), 8 * nbytes), np.uint8)
    scale = 1 << resolution
    samples = np.empty(len(rows))
    for start in range(0, len(rows), _QUANTIZE_BLOCK):
        block = padded[: len(rows) - start]
        block[:, 8 * nbytes - resolution :] = rows[start : start + _QUANTIZE_BLOCK]
        packed = np.packbits(block).reshape(-1, nbytes)
        words = packed[:, 0].astype(np.uint32)
        for k in range(1, nbytes):
            words <<= 8
            words |= packed[:, k]
        out = samples[start : start + _QUANTIZE_BLOCK]
        np.multiply(words, 2.0 / scale, out=out)
        out += 1.0 / scale - 1.0  # (2w + 1 - 2^B) / 2^B, exact
    return samples


def _dequantize_bits(values: np.ndarray, resolution: int) -> np.ndarray:
    """Decode samples to a uint8 array of 0/1 bits; nearest level with guard band.

    The codec core behind :func:`dequantize_samples`. Raises OffGrid,
    with ``index`` set to the first offending sample, if any sample lies
    farther than 2^-(B+1) from every legal level. Callers have checked
    the resolution, as for :func:`_quantize_bits`.
    """
    v = np.asarray(values, dtype=float)
    scale = 1 << resolution
    nearest = np.clip(np.rint((v * scale - 1.0 + scale) / 2.0), 0, scale - 1)
    levels = (2.0 * nearest + 1.0 - scale) / scale
    guard = 0.5 / scale  # 2^-(B+1)
    bad = ~(np.abs(v - levels) <= guard)  # NaN compares False, so it counts as off-grid
    if bad.any():
        k = int(np.argmax(bad))
        raise OffGrid(
            f"{int(bad.sum())} of {v.size} samples off-grid at B={resolution};"
            f" first at index {k}: value {v[k]:.6g}",
            index=k,
        )
    # left-align each word in its ceil(B/8) big-endian bytes, then unpack B bits per row
    nbytes = (resolution + 7) // 8
    aligned = (nearest * float(1 << (8 * nbytes - resolution))).astype(">u4")
    rows = aligned.view(np.uint8).reshape(-1, 4)[:, 4 - nbytes :]
    return np.unpackbits(rows, axis=1, count=resolution).reshape(-1)


def quantize_words(bits: str, resolution: int) -> np.ndarray:
    """Map consecutive B-bit words (MSB first, unsigned) to samples in (-1, 1)."""
    _check_resolution(resolution)  # a bad resolution is reported before a bad character
    # '0'/'1' become 0/1; any other character, non-ASCII ones as '?', lands above 1
    u8 = np.frombuffer(bits.encode("ascii", "replace"), np.uint8) - 48
    if u8.max(initial=0) > 1:
        raise BadLength("bit strings may contain only '0' and '1'")
    return _quantize_bits(u8, resolution)


def dequantize_samples(values: np.ndarray, resolution: int) -> str:
    """Decode samples back into the bit string; nearest-level with guard band.

    Raises OffGrid if any sample lies farther than 2^-(B+1) from every
    legal level.
    """
    _check_resolution(resolution)
    return (_dequantize_bits(values, resolution) + 48).tobytes().decode("ascii")


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
    bounds = plan.layout.bounds
    by_id = _index_payloads(plan, payloads)
    ordered = [by_id[ch.id] for ch in plan.channels]
    row = np.empty(plan.blocklength)
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


def assemble_frame(layout: FrameLayout, row: np.ndarray) -> CoefficientFrame:
    """Scatter one TDM row into its coefficient frame through ``layout.index``."""
    flat = np.empty(layout.index.size)
    flat[layout.index] = row
    return CoefficientFrame(*_split(flat, layout.depth))


def disassemble_frame(frame: CoefficientFrame, layout: FrameLayout) -> np.ndarray:
    """Gather one TDM row out of a coefficient frame; inverse of :func:`assemble_frame`."""
    if frame.depth != layout.depth or frame.length != layout.index.size:
        raise ShapeMismatch(
            f"frame of depth {frame.depth} over {frame.length} samples does not match the"
            f" allocation: depth {layout.depth} over {layout.index.size}"
        )
    return np.concatenate(frame.details + (frame.approx,))[layout.index]


# ------------------------------------------------------------------ mux/demux

#: Samples per block of frames in :func:`mux_frames`/:func:`demux_frames`.
#: A block's input, coefficient buffer, periodic extension and level scratch
#: then take under 2 MB, so they stay in a 2 MiB L2 cache. On 64 frames of
#: 4096 samples (db4, J=6; 2 vCPUs, 2 MiB L2 per core) mux_frames and
#: demux_frames took 13.5 and 10.1 ms one frame per block, 5.7 and 4.9 ms
#: in blocks of 16, and 6.2-6.4 and 5.5-5.6 ms in blocks of 32 or 64.
_BLOCK_SAMPLES = 1 << 16


def _synthesize_rows(layout: FrameLayout, system: FilterPair, rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Line frames (..., N) of TDM rows (..., N): one scatter, then synthesis from views of it.

    ``index`` places the rows' samples in their flat coefficient buffer,
    both read in order: ``layout.index`` for one row, or for a block as
    :func:`_by_blocks` builds it.
    """
    flat = _scratch("coefficients", rows.shape)
    flat.reshape(-1)[index] = rows.reshape(-1)
    return _synthesize_levels(*_split(flat, layout.depth), system.g, system.h)


def _analyze_rows(layout: FrameLayout, system: FilterPair, frames: np.ndarray, index: np.ndarray) -> np.ndarray:
    """TDM rows (..., N) of line frames (..., N): analysis down to the leaf level, then one gather."""
    flat = _scratch("coefficients", frames.shape)
    # a non-finite line sample turns into NaN on the way down; the decoder
    # reports it as OffGrid, so NumPy's warning would only repeat it
    with np.errstate(invalid="ignore", over="ignore"):
        _analyze_flat(frames, layout.depth, system.g, system.h, flat)
    return flat.reshape(-1)[index].reshape(frames.shape)


def _by_blocks(body, layout: FrameLayout, system: FilterPair, frames: np.ndarray) -> np.ndarray:
    """``body`` run over blocks of ``frames`` (frames, N), into one (frames, N) result."""
    n = frames.shape[1]
    step = max(1, _BLOCK_SAMPLES // n)
    # layout.index for each frame of a block, over the whole block read as
    # one 1-D array (NumPy indexes that much faster than the last axis of a
    # 2-D array); a shorter last block uses its head
    index = (layout.index + n * np.arange(min(step, len(frames)))[:, None]).reshape(-1)
    out = np.empty(frames.shape)
    for start in range(0, len(frames), step):
        block = frames[start : start + step]
        out[start : start + step] = body(layout, system, block, index[: block.size])
    return out


def mux_frames(plan: RatePlan, system: FilterPair, tdm) -> np.ndarray:
    """Multiplex a ``(frames, N)`` array of TDM rows into a line of frames * N samples."""
    tdm = np.asarray(tdm, dtype=float)
    if tdm.ndim != 2 or len(tdm) < 1 or tdm.shape[1] != plan.blocklength:
        raise ShapeMismatch(f"TDM array of shape {tdm.shape}, plan expects (frames >= 1, {plan.blocklength})")
    return _by_blocks(_synthesize_rows, plan.layout, system, _finite(plan, tdm)).reshape(-1)


def demux_frames(plan: RatePlan, system: FilterPair, line) -> np.ndarray:
    """Recover the ``(frames, N)`` TDM rows from a line of whole frames.

    Analysis runs down to the allocation's leaf level only, so a leaf
    channel's raw samples are never decomposed further.
    """
    n = plan.blocklength
    x = np.asarray(line, dtype=float)
    if x.ndim != 1 or x.size < n or x.size % n:
        raise ShapeMismatch(f"signal has {x.size} samples, not a whole number of {n}-sample frames")
    return _by_blocks(_analyze_rows, plan.layout, system, x.reshape(-1, n))


def mux(plan: RatePlan, system: FilterPair, payloads) -> MuxedSignal:
    """Multiplex one frame of payloads into a length-N signal."""
    layout = plan.layout
    row = _finite(plan, tdm_row(plan, payloads))
    return MuxedSignal(_synthesize_rows(layout, system, row, layout.index), layout.digest)


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
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size != plan.blocklength:
        raise ShapeMismatch(f"signal has {x.size} samples, plan expects {plan.blocklength}")

    row = _analyze_rows(layout, system, x, layout.index)
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
            _dequantize_bits(row[lo:hi], b)
        except OffGrid as inner:
            raise OffGrid(f"channel {plan.channels[c].id!r}: {inner}", index=inner.index) from inner
        raise
    return [TributaryPayload.from_bits(ch.id, bits[lo * b : hi * b]) for ch, (lo, hi) in channels]
