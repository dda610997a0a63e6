"""Rate numerology and deterministic band allocation.

A plan fixes the frame blocklength N (a power of two), the number of
scales J, the basic channel rate R in bits per second, and the converter
resolution B in bits per sample. Admissible tributary rates are
R, 2R, ..., 2^(J-1) R; writing n_j for the number of channels at rate
2^(J-j) R, a full frame requires

    sum_j n_j * 2^(J-j) = 2^J        (equivalently  sum_j n_j / 2^j = 1).

The frame lasts T = N * B / (2^J * R) seconds and the multiplex output
runs at 2^J * R bits per second regardless of how the channels split.

Capacity accounting is done in "units" of one basic-rate channel: the
frame holds 2^J units, the detail band at level l holds 2^(J-l), and a
channel of rate 2^(J-j) R occupies 2^(J-j) of them. Channels are placed
in descending rate, ties in declaration order, and the detail bands fill
finest first: a channel of u units in a band of C units takes decimation
C/u and the lowest free phase at it, and the last channel takes the
remaining approximation whole (see :func:`allocate_bands`). The pyramid
splits only the approximation, so the result is flat: an
:class:`Allocation` holds the detail bands' slots finest first, then the
leaf channel on the last approximation.

A plan is compiled once into a :class:`FrameLayout` (``plan.layout``):
validation, allocation, digest and the permutation between a frame's
time-division row and its coefficient vector, computed on first use and
kept on the frozen plan.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    BadResolution,
    CapacityMismatch,
    ConfigError,
    DepthExceedsBlocklength,
    DuplicateChannel,
    IllegalRate,
    JTooLarge,
    NotPowerOfTwoN,
    NTooLarge,
    RateInconsistentWithFm,
)

__all__ = [
    "Channel",
    "RatePlan",
    "FrameLayout",
    "Composition",
    "Slot",
    "Allocation",
    "enumerate_compositions",
    "count_compositions",
    "frame_time",
    "tributary_rates",
    "aggregate_rate",
    "validate_plan",
    "allocate_bands",
    "channel_units",
    "samples_per_frame",
    "plan_from_dict",
    "plan_to_dict",
    "load_plan",
    "plan_digest",
    "tree_depth",
]

#: A composition is the vector (n_1, ..., n_J) of channel counts per rate
#: tier, n_1 counting the fastest (rate 2^(J-1) R) channels.
Composition = tuple[int, ...]

#: Most compositions :func:`enumerate_compositions` lists; J = 8 has 692,003, J = 9 over 30 million.
_COMPOSITION_CAP = 1_000_000
_MAX_LEVELS = 16
#: Largest blocklength N a plan may declare: 2^24 samples, 128 MiB per
#: float64 frame. Compiling a plan builds arrays of N entries, so a larger
#: N would fail for want of memory rather than as an invalid plan.
_MAX_BLOCKLENGTH = 1 << 24


@dataclass(frozen=True)
class Channel:
    """One declared tributary: id, bit rate, optional analog bandwidth."""

    id: str
    rate: int
    max_frequency: float | None = None


@dataclass(frozen=True)
class RatePlan:
    """Static description of one multiplex configuration."""

    blocklength: int            # N, samples per frame (power of two)
    levels: int                 # J, number of scales
    basic_rate: int             # R, bits/second of the unit tributary
    resolution: int             # B, converter bits per sample
    channels: tuple[Channel, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", tuple(self.channels))

    @cached_property
    def layout(self) -> "FrameLayout":
        """This plan compiled on first use; raises what :func:`validate_plan` raises."""
        return _compile_layout(self)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# ------------------------------------------------------------ compositions

def count_compositions(levels: int) -> int:
    """Number of solutions of sum_j n_j 2^(J-j) = 2^J, without listing them.

    Coin-change dynamic program over the part sizes {1, 2, ..., 2^(J-1)};
    it holds 2^J + 1 counts, so J above ``_MAX_LEVELS`` raises JTooLarge
    before anything is allocated.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if levels > _MAX_LEVELS:
        raise JTooLarge(f"levels={levels} exceeds the supported maximum {_MAX_LEVELS}")
    total = 1 << levels
    ways = [0] * (total + 1)
    ways[0] = 1
    for w in (1 << k for k in range(levels)):
        for r in range(w, total + 1):
            ways[r] += ways[r - w]
    return ways[total]


def enumerate_compositions(levels: int) -> list[Composition]:
    """All channel-count vectors that exactly fill a J-level frame.

    Ordered lexicographically descending on (n_1, n_2, ...), so the
    all-fast configuration comes first and the all-basic-rate one last.
    Complete and duplicate-free. Raises what :func:`count_compositions`
    raises for J, and JTooLarge when the solution count would exceed
    ``_COMPOSITION_CAP`` (from J = 9 on).
    """
    n = count_compositions(levels)
    if n > _COMPOSITION_CAP:
        raise JTooLarge(f"{n} compositions at levels={levels} exceed the cap of {_COMPOSITION_CAP}")

    if levels == 1:
        return [(2,)]  # a single tier: two basic-rate channels
    out: list[Composition] = []
    # tiers J-1 and J weigh 2 and 1, so n_{J-1} fixes n_J: per number of units
    # left, every (n_{J-1}, n_J) pair is listed once, and each composition is
    # one prefix + pair
    pairs: dict[int, list[tuple[int, int]]] = {}
    # depth-first over prefixes (n_1 .. n_j) and the units they leave; each
    # tier's counts are pushed ascending so that the largest pops first
    stack: list[tuple[Composition, int]] = [((), 1 << levels)]
    while stack:
        prefix, remaining = stack.pop()
        if len(prefix) == levels - 2:
            tails = pairs.get(remaining)
            if tails is None:
                tails = pairs[remaining] = [(cnt, remaining - 2 * cnt) for cnt in range(remaining // 2, -1, -1)]
            out.extend([prefix + tail for tail in tails])
        else:
            w = 1 << (levels - len(prefix) - 1)
            stack.extend([(prefix + (cnt,), remaining - cnt * w) for cnt in range(remaining // w + 1)])
    return out


# --------------------------------------------------------------- numerology

def tributary_rates(levels: int, basic_rate: int) -> list[int]:
    """Admissible channel rates {R, 2R, ..., 2^(J-1) R}, ascending."""
    if levels < 1 or basic_rate <= 0:
        raise ValueError("levels must be >= 1 and basic_rate positive")
    return [basic_rate << j for j in range(levels)]


def _check_resolution(resolution: int) -> None:
    """B must lie in 1..24: the codec holds a word in at most three bytes."""
    if not 1 <= resolution <= 24:
        raise BadResolution(f"resolution must be in 1..24 bits, got {resolution}")


def _validate_parameters(plan: RatePlan) -> None:
    """Check the scalar frame parameters (N, J, R, B) alone."""
    if not _is_pow2(plan.blocklength):
        raise NotPowerOfTwoN(f"blocklength {plan.blocklength} is not a power of two")
    if plan.blocklength > _MAX_BLOCKLENGTH:
        raise NTooLarge(f"blocklength {plan.blocklength} exceeds the supported maximum {_MAX_BLOCKLENGTH}")
    # N = 2^n with n <= 24 here, so J is compared with n: a huge J's 2^J would
    # not fit in memory, nor print, so the message states it as a power
    if not 1 <= plan.levels < plan.blocklength.bit_length():
        least = 1 << max(plan.levels, 1) if plan.levels <= 64 else f"2^{plan.levels}"
        raise DepthExceedsBlocklength(
            f"levels={plan.levels} needs a blocklength of at least {least}, got {plan.blocklength}"
        )
    if plan.basic_rate <= 0:
        raise IllegalRate(f"basic rate must be positive, got {plan.basic_rate}")
    _check_resolution(plan.resolution)


def frame_time(plan: RatePlan) -> Fraction:
    """Duration of one frame, T = N * B / (2^J * R), as an exact fraction.

    Values such as 8 ms or 125 us are not binary-representable, so the
    result is kept rational; multiply by aggregate_rate to recover N * B
    exactly. Depends only on the frame parameters, not the channel list.
    """
    _validate_parameters(plan)
    return Fraction(plan.blocklength * plan.resolution, (1 << plan.levels) * plan.basic_rate)


def aggregate_rate(plan: RatePlan) -> int:
    """Multiplex output rate 2^J * R in bits per second."""
    _validate_parameters(plan)
    return (1 << plan.levels) * plan.basic_rate


def channel_units(plan: RatePlan, channel: Channel) -> int:
    """Capacity units (basic-rate equivalents) one channel occupies."""
    return channel.rate // plan.basic_rate


def samples_per_frame(plan: RatePlan, channel: Channel) -> int:
    """Samples one channel contributes to each frame: (rate/R) * N / 2^J."""
    return channel_units(plan, channel) * (plan.blocklength >> plan.levels)


def validate_plan(plan: RatePlan) -> Composition:
    """Check every plan invariant; return the induced composition.

    Raises NotPowerOfTwoN, NTooLarge, DepthExceedsBlocklength, BadResolution,
    IllegalRate, RateInconsistentWithFm, DuplicateChannel, or
    CapacityMismatch.
    """
    _validate_parameters(plan)

    legal = set(tributary_rates(plan.levels, plan.basic_rate))
    counts = [0] * plan.levels
    seen: set[str] = set()
    for ch in plan.channels:
        if ch.id in seen:
            raise DuplicateChannel(f"channel id {ch.id!r} declared twice")
        seen.add(ch.id)
        if ch.rate not in legal:
            raise IllegalRate(
                f"channel {ch.id!r} rate {ch.rate} not in {sorted(legal)}"
            )
        if ch.max_frequency is not None and ch.rate != plan.resolution * 2 * ch.max_frequency:
            raise RateInconsistentWithFm(
                f"channel {ch.id!r}: rate {ch.rate} != B * 2 * f_m = "
                f"{plan.resolution * 2 * ch.max_frequency}"
            )
        # tier j holds rate 2^(J-j) R, so j = J - log2(rate / R)
        counts[plan.levels - (ch.rate // plan.basic_rate).bit_length()] += 1

    total = sum(n << (plan.levels - j) for j, n in enumerate(counts, start=1))
    if total != (1 << plan.levels):
        raise CapacityMismatch(
            f"channel rates sum to {sum(c.rate for c in plan.channels)} bps,"
            f" aggregate is {(1 << plan.levels) * plan.basic_rate} bps"
        )
    return tuple(counts)


# ---------------------------------------------------------------- allocation

@dataclass(frozen=True)
class Slot:
    """One channel's polyphase slot inside a detail band.

    The slot owns band indices {phase + k * decimation}; decimation 1
    means the whole band.
    """

    channel_id: str
    decimation: int
    phase: int


@dataclass(frozen=True)
class Allocation:
    """Where a plan's channels sit: the detail bands' slots, then the leaf.

    ``bands[l - 1]`` holds the slots of detail band l, finest (l = 1)
    first, and ``leaf`` is the channel that takes the approximation at
    level ``depth`` whole; its samples pass through untransformed at that
    depth, so analysis of the multiplexed signal stops there.
    """

    bands: tuple[tuple[Slot, ...], ...]
    leaf: str

    @property
    def depth(self) -> int:
        """Number of detail bands, the level of the leaf's approximation."""
        return len(self.bands)


def allocate_bands(plan: RatePlan) -> Allocation:
    """The plan's band allocation (see :func:`_allocate`), built once with its layout."""
    return plan.layout.allocation


def tree_depth(allocation: Allocation) -> int:
    """Level of the leaf's approximation: ``allocation.depth``."""
    return allocation.depth


def _allocate(plan: RatePlan) -> Allocation:
    """Assign every channel of a valid plan to a band slot or the leaf, in one pass.

    Channels are taken in descending rate, ties in declaration order, and
    the bands fill finest first: a channel of u units in a band of C units
    takes decimation C/u and the lowest phase still free at that
    decimation. The last channel finds every band full and the
    approximation the size of its rate, and takes it whole as the leaf.

    Rates only fall, so a band is full before the next one opens, and the
    open band's free capacity is a list of phases at one decimation d;
    going to decimation 2d splits each free phase q into q and q + d.
    """
    bands: list[list[Slot]] = []
    approx = 1 << plan.levels      # units left below the bands opened so far
    free: list[int] = []           # the open band's free phases at decimation d, largest first
    d = 1
    for ch in sorted(plan.channels, key=lambda c: -c.rate):  # stable sort keeps declaration order
        units = channel_units(plan, ch)
        if not free:
            if approx == units:
                leaf = ch.id
                continue
            approx >>= 1           # open the next band, of approx units
            bands.append([])
            free, d = [0], 1
        want = approx // units
        while d < want:
            free = [q + d for q in free] + free
            d *= 2
        bands[-1].append(Slot(ch.id, want, free.pop()))
    return Allocation(tuple(map(tuple, bands)), leaf)


# -------------------------------------------------------------- frame layout

@dataclass(frozen=True, eq=False)
class FrameLayout:
    """Where every sample of a frame sits, compiled once from a valid plan.

    ``allocation`` places each channel in a detail band or the leaf, and
    ``depth`` is ``allocation.depth``, kept as a field because the frame
    path reads it on every call. A frame's TDM row holds the channels'
    samples concatenated in declaration order, channel ``i`` at
    ``row[lo:hi]`` for ``(lo, hi) = bounds[i]``. Its flat coefficient
    vector holds the detail bands finest first, then the approximation at
    level ``depth``. The two are permutations of each other: TDM sample
    ``i`` is flat coefficient ``index[i]`` (a read-only array).

    ``in_order`` is computed from ``index``: true when the permutation is
    the identity, as for an octave ladder declared finest band first, whose
    TDM row already is its coefficient vector. The frame path then
    synthesizes from views of the row and analyzes straight into the
    returned row, with no scatter or gather. Otherwise ``inverse`` is the
    inverse permutation (read-only): flat coefficient ``j`` is TDM sample
    ``inverse[j]``, so the scatter runs as a gather. In order it is None,
    and a large layout holds no second index.

    Layouts compare and hash by identity: a comparison of their arrays
    would have no single truth value.
    """

    composition: Composition
    allocation: Allocation
    depth: int
    digest: str
    bounds: tuple[tuple[int, int], ...]
    index: np.ndarray
    in_order: bool = field(init=False)
    inverse: np.ndarray | None = field(init=False)

    def __post_init__(self) -> None:
        # a permutation of 0 .. N-1 is the identity exactly when it ascends
        in_order = bool(np.all(self.index[1:] > self.index[:-1]))
        inverse = None
        if not in_order:
            inverse = np.empty_like(self.index)
            inverse[self.index] = np.arange(self.index.size)
            inverse.flags.writeable = False
        object.__setattr__(self, "in_order", in_order)
        object.__setattr__(self, "inverse", inverse)


def _compile_layout(plan: RatePlan) -> FrameLayout:
    composition = validate_plan(plan)
    allocation = _allocate(plan)
    n = plan.blocklength
    # channel id -> its flat coefficient indices; the band at level l spans N - 2 (N >> l) .. N - (N >> l)
    flat = {slot.channel_id: np.arange(n - 2 * (n >> level) + slot.phase, n - (n >> level), slot.decimation)
            for level, band in enumerate(allocation.bands, start=1) for slot in band}
    flat[allocation.leaf] = np.arange(n - (n >> allocation.depth), n)
    ends = np.cumsum([flat[ch.id].size for ch in plan.channels]).tolist()
    index = np.concatenate([flat[ch.id] for ch in plan.channels])
    index.flags.writeable = False
    return FrameLayout(composition, allocation, allocation.depth, plan_digest(plan),
                       tuple(zip([0] + ends[:-1], ends)), index)


# ------------------------------------------------------------- serialization

def plan_to_dict(plan: RatePlan) -> dict:
    channels = []
    for ch in plan.channels:
        entry: dict = {"id": ch.id, "rate_bps": ch.rate}
        if ch.max_frequency is not None:
            entry["f_m_hz"] = ch.max_frequency
        channels.append(entry)
    return {
        "N": plan.blocklength,
        "J": plan.levels,
        "R_bps": plan.basic_rate,
        "B": plan.resolution,
        "channels": channels,
    }


_KINDS = {"text": "a string", "whole": "a whole number", "finite": "a finite number"}


def _read(entry: dict, key: str, kind: str) -> str | int | float:
    """``entry[key]`` of a plan document, once it is of ``kind`` (see ``_KINDS``).

    ``"text"`` takes a JSON string. The others take a JSON number only, that
    is an int or a float; a bool, a string or null is refused, however it
    would convert. ``"whole"`` (N, J, R_bps, B, rate_bps) takes a number
    without a fraction and returns an int, so 8.0 reads as 8; ``"finite"``
    (f_m_hz) takes a number within the range of a finite float and returns
    a float. Raises ConfigError for anything else, KeyError when ``key``
    is missing.
    """
    value = entry[key]
    if kind == "text":
        if isinstance(value, str):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind == "whole" and (isinstance(value, int) or value.is_integer()):
            return int(value)
        # compares an int of any size exactly, and is false for NaN
        if kind == "finite" and -sys.float_info.max <= value <= sys.float_info.max:
            return float(value)
    raise ConfigError(f"malformed plan document: {key} must be {_KINDS[kind]}, got {value!r}")


def plan_from_dict(data: dict) -> RatePlan:
    """The plan a plan document describes, every field read once by :func:`_read`.

    Raises ConfigError for a document of the wrong structure or a field
    of the wrong kind; the plan itself is checked when it compiles.
    """
    try:
        channels = tuple(
            Channel(_read(c, "id", "text"), _read(c, "rate_bps", "whole"),
                    _read(c, "f_m_hz", "finite") if "f_m_hz" in c else None)
            for c in data["channels"]
        )
        return RatePlan(*(_read(data, key, "whole") for key in ("N", "J", "R_bps", "B")), channels)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed plan document: {exc}") from exc


def load_plan(path) -> RatePlan:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, UnicodeDecodeError for bytes that are not UTF-8, or
            # RecursionError for arrays or objects nested past the parser's depth
            raise ConfigError(f"plan file {path} cannot be read as JSON: {exc}") from exc
    return plan_from_dict(data)


def plan_digest(plan: RatePlan) -> str:
    """Stable identifier binding signals to the plan they were built under."""
    blob = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
