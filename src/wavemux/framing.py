"""End-to-end multiplex and demultiplex of tributary payloads.

A frame travels inside the library as a TDM row: every channel's samples
concatenated in declaration order, N in all. The plan's frame layout
(``plan.layout``, compiled once per plan) says where each TDM sample
sits among the frame's wavelet coefficients, so the transmit chain is
one scatter (:func:`assemble_frame`) and one synthesis per frame, and
the receive chain one analysis down to the leaf level and one gather
(:func:`disassemble_frame`). :func:`mux_frames` and :func:`demux_frames`
run the chains over a ``(frames, N)`` array and hold the only frame
loops. :func:`mux` and :func:`demux` run the same chain on one frame of
payload objects (:func:`tdm_row` turns them into a row) without stacking
it: at N = 2^18 the two extra full-length arrays, fresh memory on every
call, cost about a third of the single-frame throughput.

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
    BadResolution,
    DuplicateChannel,
    MissingChannel,
    OffGrid,
    PayloadLengthMismatch,
    ShapeMismatch,
)
from .mra import CoefficientFrame, analyze, synthesize
# allocate_bands, plan_digest and validate_plan are unused here, but
# perfbench/tracing.py wraps them in this module by name
from .rateplan import FrameLayout, RatePlan, allocate_bands, plan_digest, validate_plan  # noqa: F401
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


def _check_resolution(resolution: int) -> None:
    if not 1 <= resolution <= 24:
        raise BadResolution(f"resolution must be in 1..24 bits, got {resolution}")


def _quantize_bits(bits: np.ndarray, resolution: int) -> np.ndarray:
    """Map a uint8 array of 0/1 bits, B per word, to samples in (-1, 1).

    The codec core behind :func:`quantize_words`; callers have checked
    that every element is 0 or 1.
    """
    _check_resolution(resolution)
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
    farther than 2^-(B+1) from every legal level.
    """
    _check_resolution(resolution)
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
    return (_dequantize_bits(values, resolution) + 48).tobytes().decode("ascii")


# --------------------------------------------------------------- frame build

def _payload_samples(payload: TributaryPayload, expected: int, resolution: int) -> np.ndarray:
    if payload.is_digital:
        if len(payload.bits) != expected * resolution:
            raise PayloadLengthMismatch(
                f"channel {payload.id!r}: {len(payload.bits)} bits, expected"
                f" {expected} samples * {resolution} bits"
            )
        return quantize_words(payload.bits, resolution)
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
    holds exactly the N values that become the frame's coefficients.
    """
    bounds = plan.layout.bounds
    by_id = _index_payloads(plan, payloads)
    return np.concatenate([
        _payload_samples(by_id[ch.id], hi - lo, plan.resolution)
        for ch, (lo, hi) in zip(plan.channels, bounds)
    ])


def assemble_frame(layout: FrameLayout, row: np.ndarray) -> CoefficientFrame:
    """Scatter one TDM row into its coefficient frame through ``layout.index``."""
    n = layout.index.size
    flat = np.empty(n)
    flat[layout.index] = row
    details = tuple(flat[n - 2 * (n >> level) : n - (n >> level)] for level in range(1, layout.depth + 1))
    return CoefficientFrame(details, flat[n - (n >> layout.depth) :])


def disassemble_frame(frame: CoefficientFrame, layout: FrameLayout) -> np.ndarray:
    """Gather one TDM row out of a coefficient frame; inverse of :func:`assemble_frame`."""
    if frame.depth != layout.depth or frame.length != layout.index.size:
        raise ShapeMismatch(
            f"frame of depth {frame.depth} over {frame.length} samples does not match the"
            f" allocation: depth {layout.depth} over {layout.index.size}"
        )
    return np.concatenate(frame.details + (frame.approx,))[layout.index]


# ------------------------------------------------------------------ mux/demux

def mux_frames(plan: RatePlan, system: FilterPair, tdm) -> np.ndarray:
    """Multiplex a ``(frames, N)`` array of TDM rows into a line of frames * N samples."""
    layout = plan.layout
    tdm = np.asarray(tdm, dtype=float)
    if tdm.ndim != 2 or len(tdm) < 1 or tdm.shape[1] != plan.blocklength:
        raise ShapeMismatch(f"TDM array of shape {tdm.shape}, plan expects (frames >= 1, {plan.blocklength})")
    return np.concatenate([synthesize(assemble_frame(layout, row), system) for row in tdm])


def demux_frames(plan: RatePlan, system: FilterPair, line) -> np.ndarray:
    """Recover the ``(frames, N)`` TDM rows from a line of whole frames.

    Analysis runs down to the allocation's leaf level only, so a leaf
    channel's raw samples are never decomposed further.
    """
    layout = plan.layout
    n = plan.blocklength
    x = np.asarray(line, dtype=float)
    if x.ndim != 1 or x.size < n or x.size % n:
        raise ShapeMismatch(f"signal has {x.size} samples, not a whole number of {n}-sample frames")
    frames = x.reshape(-1, n)
    return np.stack([disassemble_frame(analyze(frame, layout.depth, system), layout) for frame in frames])


def mux(plan: RatePlan, system: FilterPair, payloads) -> MuxedSignal:
    """Multiplex one frame of payloads into a length-N signal."""
    layout = plan.layout
    return MuxedSignal(synthesize(assemble_frame(layout, tdm_row(plan, payloads)), system), layout.digest)


def demux(plan: RatePlan, system: FilterPair, signal, *, digital: bool = True) -> list[TributaryPayload]:
    """Recover every tributary from one multiplexed frame.

    With ``digital=True`` each channel is decoded back to bits (OffGrid
    names the offending channel); otherwise sample payloads are returned.
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

    row = disassemble_frame(analyze(x, layout.depth, system), layout)
    out = []
    for ch, (lo, hi) in zip(plan.channels, layout.bounds):
        if not digital:
            out.append(TributaryPayload.from_samples(ch.id, row[lo:hi]))
            continue
        try:
            out.append(TributaryPayload.from_bits(ch.id, dequantize_samples(row[lo:hi], plan.resolution)))
        except OffGrid as exc:
            raise OffGrid(f"channel {ch.id!r}: {exc}", index=exc.index) from exc
    return out
