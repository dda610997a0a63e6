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
by a buddy allocator (see :func:`allocate_bands`) that reproduces the
obvious equal-rate layout and stays deterministic for mixed rates.

A plan is compiled once into a :class:`FrameLayout` (``plan.layout``):
validation, allocation, digest and the permutation between a frame's
time-division row and its coefficient vector, computed on first use and
kept on the frozen plan.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Union

import numpy as np

from .errors import (
    BadPhase,
    BadResolution,
    CapacityMismatch,
    ConfigError,
    DepthExceedsBlocklength,
    DuplicateChannel,
    IllegalRate,
    JTooLarge,
    NotPowerOfTwoN,
    RateInconsistentWithFm,
)

__all__ = [
    "Channel",
    "RatePlan",
    "FrameLayout",
    "Composition",
    "Slot",
    "LeafNode",
    "SplitNode",
    "AllocationTree",
    "enumerate_compositions",
    "count_compositions",
    "frame_time",
    "tributary_rates",
    "aggregate_rate",
    "validate_plan",
    "allocate_bands",
    "slot_indices",
    "channel_units",
    "samples_per_frame",
    "plan_from_dict",
    "plan_to_dict",
    "load_plan",
    "plan_digest",
    "tree_to_dict",
    "tree_from_dict",
    "tree_to_json",
    "tree_depth",
    "tree_leaf",
    "iter_band_slots",
]

#: A composition is the vector (n_1, ..., n_J) of channel counts per rate
#: tier, n_1 counting the fastest (rate 2^(J-1) R) channels.
Composition = tuple[int, ...]

DEFAULT_COMPOSITION_CAP = 1_000_000
_MAX_LEVELS = 16


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

    Coin-change dynamic program over the part sizes {1, 2, ..., 2^(J-1)}.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    total = 1 << levels
    ways = [0] * (total + 1)
    ways[0] = 1
    for w in (1 << k for k in range(levels)):
        for r in range(w, total + 1):
            ways[r] += ways[r - w]
    return ways[total]


def enumerate_compositions(levels: int, cap: int = DEFAULT_COMPOSITION_CAP) -> list[Composition]:
    """All channel-count vectors that exactly fill a J-level frame.

    Ordered lexicographically descending on (n_1, n_2, ...), so the
    all-fast configuration comes first and the all-basic-rate one last.
    Complete and duplicate-free; raises JTooLarge when the solution count
    would exceed ``cap``.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if levels > _MAX_LEVELS:
        raise JTooLarge(f"levels={levels} exceeds the supported maximum {_MAX_LEVELS}")
    n = count_compositions(levels)
    if n > cap:
        raise JTooLarge(f"{n} compositions at levels={levels} exceed the cap of {cap}")

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
    if plan.levels < 1 or plan.blocklength < (1 << plan.levels):
        raise DepthExceedsBlocklength(
            f"levels={plan.levels} needs a blocklength of at least {1 << max(plan.levels, 1)},"
            f" got {plan.blocklength}"
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

    Raises NotPowerOfTwoN, DepthExceedsBlocklength, BadResolution,
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
class LeafNode:
    """A channel occupying the whole approximation at some level.

    Its samples pass through untransformed at that depth, so analysis of
    the multiplexed signal stops here.
    """

    level: int
    channel_id: str


@dataclass(frozen=True)
class SplitNode:
    """An internal node: detail band at level+1 plus a deeper child."""

    level: int
    band: tuple[Slot, ...]
    child: Union["SplitNode", LeafNode]


AllocationTree = Union[SplitNode, LeafNode]


def slot_indices(band_length: int, decimation: int, phase: int) -> np.ndarray:
    """Coefficient indices a slot owns inside its band, ascending."""
    if not _is_pow2(decimation) or band_length % decimation:
        raise ValueError(
            f"decimation must be a power of two dividing the band length,"
            f" got {decimation} for length {band_length}"
        )
    if not 0 <= phase < decimation:
        raise BadPhase(f"phase {phase} outside [0, {decimation})")
    return np.arange(phase, band_length, decimation)


class _Band:
    """Mutable buddy free-list for one detail band during allocation."""

    def __init__(self, level: int, capacity: int) -> None:
        self.level = level
        self.capacity = capacity          # units, power of two
        self.free: list[tuple[int, int]] = [(1, 0)]  # (decimation, phase)
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


def allocate_bands(plan: RatePlan) -> AllocationTree:
    """The plan's band allocation (see :func:`_allocate`), built once with its layout."""
    return plan.layout.tree


def _allocate(plan: RatePlan) -> AllocationTree:
    """Deterministically assign every channel of a valid plan to a band slot or leaf node.

    Channels are taken in descending rate (declaration order breaking
    ties). Each is placed in the finest detail band holding a free buddy
    chunk of sufficient size, lowest phase first. When no band fits, the
    pending approximation node is handed to the channel whole if the
    sizes match, otherwise split one level deeper and the search retried.
    Placement always succeeds for a valid plan.
    """
    levels = plan.levels
    order = sorted(plan.channels, key=lambda c: -c.rate)  # stable sort keeps declaration order

    bands: list[_Band] = []
    depth = 0
    approx_units = 1 << levels
    leaf_channel: str | None = None

    for ch in order:
        units = channel_units(plan, ch)
        while True:
            if any(b.try_place(ch.id, units) for b in bands):
                break
            assert leaf_channel is None, "free capacity exhausted for a valid plan"
            if approx_units == units:
                leaf_channel = ch.id
                break
            assert approx_units > units, "approximation node smaller than pending channel"
            depth += 1
            bands.append(_Band(depth, 1 << (levels - depth)))
            approx_units >>= 1

    assert leaf_channel is not None, "valid plans always terminate in a leaf"
    node: AllocationTree = LeafNode(level=depth, channel_id=leaf_channel)
    for band in reversed(bands):
        node = SplitNode(level=band.level - 1, band=tuple(band.slots), child=node)
    return node


# -------------------------------------------------------- tree introspection

def tree_depth(tree: AllocationTree) -> int:
    """Level of the terminal leaf node."""
    return tree_leaf(tree).level


def tree_leaf(tree: AllocationTree) -> LeafNode:
    node = tree
    while isinstance(node, SplitNode):
        node = node.child
    return node


def iter_band_slots(tree: AllocationTree) -> Iterator[tuple[int, Slot]]:
    """Yield (band level, slot) pairs from the finest band downward."""
    node = tree
    while isinstance(node, SplitNode):
        for slot in node.band:
            yield node.level + 1, slot
        node = node.child


# -------------------------------------------------------------- frame layout

@dataclass(frozen=True)
class FrameLayout:
    """Where every sample of a frame sits, compiled once from a valid plan.

    A frame's TDM row holds the channels' samples concatenated in
    declaration order, channel ``i`` at ``row[lo:hi]`` for
    ``(lo, hi) = bounds[i]``. Its flat coefficient vector holds the detail
    bands finest first, then the approximation at level ``depth``. The two
    are permutations of each other: TDM sample ``i`` is flat coefficient
    ``index[i]`` (a read-only array).
    """

    composition: Composition
    tree: AllocationTree
    depth: int
    digest: str
    bounds: tuple[tuple[int, int], ...]
    index: np.ndarray


def _compile_layout(plan: RatePlan) -> FrameLayout:
    composition = validate_plan(plan)
    tree = _allocate(plan)
    n = plan.blocklength
    # channel id -> its flat coefficient indices; the band at level l starts at N - 2 (N >> l)
    flat = {slot.channel_id: n - 2 * (n >> level) + slot_indices(n >> level, slot.decimation, slot.phase)
            for level, slot in iter_band_slots(tree)}
    leaf = tree_leaf(tree)
    flat[leaf.channel_id] = np.arange(n - (n >> leaf.level), n)
    ends = np.cumsum([flat[ch.id].size for ch in plan.channels]).tolist()
    index = np.concatenate([flat[ch.id] for ch in plan.channels])
    index.flags.writeable = False
    return FrameLayout(composition, tree, leaf.level, plan_digest(plan),
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


def _whole(value, field: str) -> int:
    """int(value) of a JSON number, refusing booleans and numbers int() would truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"malformed plan document: {field} must be a whole number, got {value!r}")
    return int(value)


def _channel_id(value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"malformed plan document: channel id must be a string, got {value!r}")
    return value


def plan_from_dict(data: dict) -> RatePlan:
    try:
        channels = tuple(
            Channel(_channel_id(c["id"]), _whole(c["rate_bps"], "rate_bps"),
                    float(c["f_m_hz"]) if "f_m_hz" in c else None)
            for c in data["channels"]
        )
        return RatePlan(
            blocklength=_whole(data["N"], "N"),
            levels=_whole(data["J"], "J"),
            basic_rate=_whole(data["R_bps"], "R_bps"),
            resolution=_whole(data["B"], "B"),
            channels=channels,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed plan document: {exc}") from exc


def load_plan(path) -> RatePlan:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for bytes that are not UTF-8
            raise ConfigError(f"plan file {path} is not valid JSON: {exc}") from exc
    return plan_from_dict(data)


def plan_digest(plan: RatePlan) -> str:
    """Stable identifier binding signals to the plan they were built under."""
    blob = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def tree_to_dict(tree: AllocationTree) -> dict:
    if isinstance(tree, LeafNode):
        return {"kind": "leaf", "level": tree.level, "channel": tree.channel_id}
    return {
        "kind": "split",
        "level": tree.level,
        "band": {
            "level": tree.level + 1,
            "slots": [
                {"channel": s.channel_id, "decimation": s.decimation, "phase": s.phase}
                for s in tree.band
            ],
        },
        "child": tree_to_dict(tree.child),
    }


def tree_from_dict(data: dict) -> AllocationTree:
    if data["kind"] == "leaf":
        return LeafNode(level=int(data["level"]), channel_id=str(data["channel"]))
    band = tuple(
        Slot(str(s["channel"]), int(s["decimation"]), int(s["phase"]))
        for s in data["band"]["slots"]
    )
    return SplitNode(level=int(data["level"]), band=band, child=tree_from_dict(data["child"]))


def tree_to_json(tree: AllocationTree) -> str:
    """Canonical JSON rendering; identical plans give identical bytes."""
    return json.dumps(tree_to_dict(tree), sort_keys=True, separators=(",", ":"))
