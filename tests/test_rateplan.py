"""Rate numerology, composition enumeration, and band allocation."""

from __future__ import annotations

from fractions import Fraction

import pytest

from wavemux import (
    BadPhase,
    BadResolution,
    CapacityMismatch,
    Channel,
    DepthExceedsBlocklength,
    DuplicateChannel,
    IllegalRate,
    JTooLarge,
    LeafNode,
    NotPowerOfTwoN,
    RateInconsistentWithFm,
    RatePlan,
    SplitNode,
    aggregate_rate,
    allocate_bands,
    count_compositions,
    enumerate_compositions,
    frame_time,
    iter_band_slots,
    plan_from_dict,
    plan_to_dict,
    slot_indices,
    tree_depth,
    tree_from_dict,
    tree_leaf,
    tree_to_dict,
    tree_to_json,
    tributary_rates,
    validate_plan,
)
from oracles import compositions_by_product_scan, compositions_by_pruned_scan

# The nine admissible channel mixes of a three-scale frame, by exhaustive
# enumeration of 4*n1 + 2*n2 + n3 = 8 (descending lexicographic).
KNOWN_J3_COMPOSITIONS = [
    (2, 0, 0),
    (1, 2, 0),
    (1, 1, 2),
    (1, 0, 4),
    (0, 4, 0),
    (0, 3, 2),
    (0, 2, 4),
    (0, 1, 6),
    (0, 0, 8),
]


def make_plan(n, j, r, b, rates, fm=None):
    channels = tuple(
        Channel(f"ch{i}", rate, None if fm is None else fm[i]) for i, rate in enumerate(rates)
    )
    return RatePlan(n, j, r, b, channels)


def equal_rate_plan(n, j, r=64000, b=8):
    return make_plan(n, j, r, b, [r] * (1 << j))


def expand_composition(comp, n, r=64000, b=8):
    """Concrete plan with one channel per counted slot of each tier."""
    j = len(comp)
    rates = []
    for tier, count in enumerate(comp, start=1):
        rates.extend([r << (j - tier)] * count)
    return make_plan(n, j, r, b, rates)


class TestEnumerateCompositions:
    def test_single_scale(self):
        assert enumerate_compositions(1) == [(2,)]

    def test_two_scales(self):
        # exhaustive by hand: 2*n1 + n2 = 4
        assert enumerate_compositions(2) == [(2, 0), (1, 2), (0, 4)]

    def test_three_scales_known_table(self):
        assert enumerate_compositions(3) == KNOWN_J3_COMPOSITIONS

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_matches_literal_product_scan(self, j):
        assert set(enumerate_compositions(j)) == set(compositions_by_product_scan(j))

    @pytest.mark.parametrize("j", [6, 7])
    def test_matches_pruned_scan(self, j):
        got = enumerate_compositions(j)
        assert got == compositions_by_pruned_scan(j)[::-1]  # ascending scan, reversed

    def test_descending_order_and_no_duplicates(self):
        for j in range(1, 7):
            rows = enumerate_compositions(j)
            assert rows == sorted(rows, reverse=True)
            assert len(set(rows)) == len(rows)
            assert len(rows) == count_compositions(j)

    def test_every_row_fills_the_frame(self):
        for j in range(1, 7):
            for comp in enumerate_compositions(j):
                assert sum(n << (j - tier) for tier, n in enumerate(comp, start=1)) == 1 << j
                assert all(n >= 0 for n in comp)

    def test_cap_enforced(self):
        with pytest.raises(JTooLarge):
            enumerate_compositions(9)  # >30M rows under the default cap
        with pytest.raises(JTooLarge):
            enumerate_compositions(4, cap=10)
        with pytest.raises(JTooLarge):
            enumerate_compositions(17)
        with pytest.raises(ValueError):
            enumerate_compositions(0)

    def test_solution_counts_frozen(self):
        # frozen from the two independent enumeration oracles agreeing
        known = {1: 1, 2: 3, 3: 9, 4: 35, 5: 201, 6: 1827, 7: 27337, 8: 692003}
        for j, expected in known.items():
            assert count_compositions(j) == expected


class TestNumerology:
    def test_frame_time_is_exact(self):
        assert frame_time(equal_rate_plan(512, 3, 64000, 8)) == Fraction(1, 125)  # 8 ms
        assert frame_time(equal_rate_plan(64, 3, 64000, 8)) == Fraction(1, 1000)  # 1 ms
        assert frame_time(equal_rate_plan(256, 5, 64000, 1)) == Fraction(1, 8000)  # 125 us

    def test_primary_rate_family_shares_frame_time(self):
        # four ways to fill a 125 us frame at 2.048 Mbps
        for n, b in ((256, 1), (128, 2), (64, 4), (32, 8)):
            plan = equal_rate_plan(n, 5, 64000, b)
            assert frame_time(plan) == Fraction(1, 8000)
            assert aggregate_rate(plan) == 2_048_000

    def test_aggregate_rate(self):
        assert aggregate_rate(equal_rate_plan(256, 5)) == 2_048_000
        assert aggregate_rate(equal_rate_plan(4, 1)) == 128_000
        assert aggregate_rate(equal_rate_plan(64, 3)) == 512_000

    def test_time_times_rate_identity(self):
        for n, j, r, b in ((512, 3, 64000, 8), (32, 5, 64000, 8), (1024, 4, 16000, 12)):
            plan = equal_rate_plan(n, j, r, b)
            assert frame_time(plan) * aggregate_rate(plan) == n * b

    def test_tributary_rates(self):
        assert tributary_rates(3, 64000) == [64000, 128000, 256000]
        assert tributary_rates(1, 48000) == [48000]
        assert tributary_rates(5, 64000) == [64000, 128000, 256000, 512000, 1024000]


class TestValidatePlan:
    def test_equal_rate_composition(self):
        assert validate_plan(equal_rate_plan(64, 3)) == (0, 0, 8)

    def test_mixed_rate_composition(self):
        plan = make_plan(64, 3, 64000, 8, [256000, 128000, 128000])
        assert validate_plan(plan) == (1, 2, 0)

    def test_capacity_mismatch(self):
        plan = make_plan(64, 3, 64000, 8, [256000, 256000, 64000])
        with pytest.raises(CapacityMismatch):
            validate_plan(plan)

    def test_illegal_rate(self):
        with pytest.raises(IllegalRate):
            validate_plan(make_plan(64, 3, 64000, 8, [96000, 256000, 128000]))

    def test_rate_above_max_tier_is_illegal(self):
        with pytest.raises(IllegalRate):
            validate_plan(make_plan(64, 3, 64000, 8, [512000]))

    def test_blocklength_must_be_power_of_two(self):
        with pytest.raises(NotPowerOfTwoN):
            validate_plan(equal_rate_plan(96, 3))

    def test_depth_must_fit_blocklength(self):
        with pytest.raises(DepthExceedsBlocklength):
            validate_plan(make_plan(4, 3, 64000, 8, [64000] * 8))
        with pytest.raises(DepthExceedsBlocklength):
            validate_plan(make_plan(64, 0, 64000, 8, []))

    def test_analog_bandwidth_consistency(self):
        good = make_plan(64, 3, 64000, 8, [64000] * 8, fm=[4000.0] * 8)
        assert validate_plan(good) == (0, 0, 8)
        bad = make_plan(64, 3, 64000, 8, [64000] * 8, fm=[3500.0] * 8)
        with pytest.raises(RateInconsistentWithFm):
            validate_plan(bad)

    def test_duplicate_ids_rejected(self):
        plan = RatePlan(64, 3, 64000, 8, tuple(Channel("same", 64000) for _ in range(8)))
        with pytest.raises(DuplicateChannel):
            validate_plan(plan)

    @pytest.mark.parametrize("b", [0, 25, 33])
    def test_resolution_outside_1_to_24_rejected(self, b):
        assert validate_plan(equal_rate_plan(64, 3, 64000, 24)) == (0, 0, 8)
        with pytest.raises(BadResolution, match="1..24"):
            validate_plan(equal_rate_plan(64, 3, 64000, b))


class TestSlotIndices:
    def test_examples(self):
        assert slot_indices(8, 2, 1).tolist() == [1, 3, 5, 7]
        assert slot_indices(8, 1, 0).tolist() == list(range(8))
        assert slot_indices(8, 4, 2).tolist() == [2, 6]

    def test_bad_phase(self):
        with pytest.raises(BadPhase):
            slot_indices(8, 2, 2)
        with pytest.raises(BadPhase):
            slot_indices(8, 2, -1)

    def test_bad_decimation(self):
        with pytest.raises(ValueError):
            slot_indices(8, 3, 0)
        with pytest.raises(ValueError):
            slot_indices(4, 8, 0)


def slots_by_level(tree):
    out: dict[int, list] = {}
    for level, slot in iter_band_slots(tree):
        out.setdefault(level, []).append(slot)
    return out


class TestAllocateBands:
    def test_two_fast_channels(self):
        # one channel fills detail band 1, the other rides the level-1
        # approximation untransformed
        plan = make_plan(64, 3, 64000, 8, [256000, 256000])
        tree = allocate_bands(plan)
        assert isinstance(tree, SplitNode) and tree.level == 0
        assert [s.channel_id for s in tree.band] == ["ch0"]
        assert tree.band[0].decimation == 1
        leaf = tree_leaf(tree)
        assert isinstance(leaf, LeafNode) and leaf.level == 1 and leaf.channel_id == "ch1"

    def test_fast_plus_two_medium(self):
        plan = make_plan(64, 3, 64000, 8, [256000, 128000, 128000])
        tree = allocate_bands(plan)
        by_level = slots_by_level(tree)
        assert [s.channel_id for s in by_level[1]] == ["ch0"]
        assert [s.channel_id for s in by_level[2]] == ["ch1"]
        assert tree_leaf(tree) == LeafNode(level=2, channel_id="ch2")

    def test_one_fast_four_basic(self):
        plan = make_plan(64, 3, 64000, 8, [256000, 64000, 64000, 64000, 64000])
        tree = allocate_bands(plan)
        by_level = slots_by_level(tree)
        assert [s.channel_id for s in by_level[1]] == ["ch0"]
        # two basic channels time-share band 2 on opposite phases
        assert [(s.channel_id, s.decimation, s.phase) for s in by_level[2]] == [
            ("ch1", 2, 0),
            ("ch2", 2, 1),
        ]
        assert [s.channel_id for s in by_level[3]] == ["ch3"]
        assert tree_leaf(tree) == LeafNode(level=3, channel_id="ch4")

    def test_equal_rate_ladder(self):
        tree = allocate_bands(equal_rate_plan(64, 3))
        by_level = slots_by_level(tree)
        assert [s.phase for s in by_level[1]] == [0, 1, 2, 3]
        assert all(s.decimation == 4 for s in by_level[1])
        assert [s.phase for s in by_level[2]] == [0, 1]
        assert len(by_level[3]) == 1
        assert tree_leaf(tree).level == 3

    def test_rate_sorting_beats_declaration_order(self):
        plan = make_plan(64, 3, 64000, 8, [64000, 64000, 256000, 128000])
        tree = allocate_bands(plan)
        by_level = slots_by_level(tree)
        assert [s.channel_id for s in by_level[1]] == ["ch2"]  # fastest first
        assert [s.channel_id for s in by_level[2]] == ["ch3"]
        assert [s.channel_id for s in by_level[3]] == ["ch0"]
        assert tree_leaf(tree).channel_id == "ch1"

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 6])
    def test_every_composition_allocates_cleanly(self, j):
        n = 1 << max(j, 6)
        for comp in enumerate_compositions(j):
            plan = expand_composition(comp, n)
            tree = allocate_bands(plan)
            self._assert_units_conserved(plan, tree)
            self._assert_buddy_disjoint(plan, tree)

    def _assert_units_conserved(self, plan, tree):
        j = plan.levels
        units = 0
        seen = []
        for level, slot in iter_band_slots(tree):
            units += (1 << (j - level)) // slot.decimation
            seen.append(slot.channel_id)
        leaf = tree_leaf(tree)
        units += 1 << (j - leaf.level)
        seen.append(leaf.channel_id)
        assert units == 1 << j
        assert sorted(seen) == sorted(c.id for c in plan.channels)

    def _assert_buddy_disjoint(self, plan, tree):
        by_level = slots_by_level(tree)
        for level, slots in by_level.items():
            band_len = plan.blocklength >> level
            owned: set[int] = set()
            for s in slots:
                idx = set(slot_indices(band_len, s.decimation, s.phase).tolist())
                assert not idx & owned
                owned |= idx

    def test_deterministic_serialization(self):
        plan = make_plan(128, 4, 64000, 8, [512000, 128000, 128000, 64000, 64000, 64000, 64000])
        blobs = {tree_to_json(allocate_bands(plan)) for _ in range(5)}
        assert len(blobs) == 1

    def test_tree_json_round_trip(self):
        tree = allocate_bands(equal_rate_plan(64, 3))
        assert tree_from_dict(tree_to_dict(tree)) == tree
        assert tree_depth(tree) == 3


def test_plan_dict_round_trip():
    plan = make_plan(64, 3, 64000, 8, [256000, 128000, 128000], fm=[16000.0, 8000.0, 8000.0])
    assert plan_from_dict(plan_to_dict(plan)) == plan
