"""Quantizer, frame assembly, and the end-to-end mux/demux chain."""

from __future__ import annotations

import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import wavemux.framing
import wavemux.rateplan
from wavemux import (
    BadLength,
    BadResolution,
    Channel,
    DataError,
    DuplicatePayload,
    MissingChannel,
    MuxedSignal,
    OffGrid,
    PayloadLengthMismatch,
    RatePlan,
    ShapeMismatch,
    TributaryPayload,
    NonFiniteSample,
    analyze,
    demux,
    demux_frames,
    dequantize_samples,
    enumerate_compositions,
    make_wavelet_system,
    mux,
    mux_frames,
    quantize_words,
    random_payloads,
    synthesize,
    tdm_row,
)
from wavemux.cli import main
from wavemux.framing import _dequantize_packed, _group, _quantize_packed, assemble_frame, disassemble_frame
from oracles import (
    OracleOffGrid,
    bit_array_dequantize,
    bit_array_quantize,
    dense_synthesis_matrix,
    quantizer_levels,
    random_scaling_filter,
    slot_walk_coefficients,
)


@pytest.fixture(scope="module")
def haar():
    return make_wavelet_system("haar")


@pytest.fixture(scope="module")
def db4():
    return make_wavelet_system("db4")


def make_plan(n, j, rates, r=64000, b=8):
    return RatePlan(n, j, r, b, tuple(Channel(f"ch{i}", rate) for i, rate in enumerate(rates)))


def random_bits(rng, count):
    return "".join(map(str, rng.integers(0, 2, count)))


def four_channel_plan(b=8):
    # four basic-rate channels in a 4-sample frame: one sample each
    return make_plan(4, 2, [64000] * 4, b=b)


class TestQuantizer:
    def test_one_bit_mapping(self):
        np.testing.assert_allclose(quantize_words("10", 1), [0.5, -0.5])

    def test_two_bit_mapping(self):
        np.testing.assert_allclose(quantize_words("00011011", 2), [-0.75, -0.25, 0.25, 0.75])

    def test_eight_bit_midpoint_word(self):
        # word 128 sits one half-step above zero: (2*128 + 1 - 256) / 256
        np.testing.assert_allclose(quantize_words(format(128, "08b"), 8), [1.0 / 256.0])

    def test_levels_fill_open_unit_interval(self):
        for b in (1, 2, 5, 12):
            levels = quantize_words("".join(format(w, f"0{b}b") for w in range(1 << b)), b)
            np.testing.assert_allclose(levels, quantizer_levels(b), atol=1e-15)
            assert levels.min() == -1.0 + 1.0 / (1 << b)
            assert levels.max() == 1.0 - 1.0 / (1 << b)
            assert np.all(np.diff(levels) == pytest.approx(2.0 ** (1 - b)))

    def test_bad_length(self):
        with pytest.raises(BadLength):
            quantize_words("101", 2)
        # any character other than '0'/'1', ASCII or not
        for bits in ("10x0", "1020", "10/0", "10\u00e90", "1\u20ac00"):
            with pytest.raises(BadLength):
                quantize_words(bits, 2)

    @pytest.mark.parametrize("b", range(1, 25))
    def test_words_map_to_levels_at_every_resolution(self, b):
        # B = 8, 9, 16, 17 and 24 straddle the 1-, 2- and 3-byte word boundaries;
        # 2^15 + 37 words end in a short group of words at every B but 8, 16 and 24
        rng = np.random.default_rng(100 + b)
        words = rng.integers(0, 1 << b, (1 << 15) + 37)
        words[:2] = 0, (1 << b) - 1
        bits = ((words[:, None] >> np.arange(b - 1, -1, -1)) & 1).astype(np.uint8) + 48
        bits = bits.tobytes().decode("ascii")
        assert bits[-b:] == format(int(words[-1]), f"0{b}b")
        samples = quantize_words(bits, b)
        assert np.array_equal(samples, quantizer_levels(b)[words])
        assert dequantize_samples(samples, b) == bits

    def test_bad_resolution(self):
        with pytest.raises(BadResolution):
            quantize_words("10", 0)
        with pytest.raises(BadResolution):
            quantize_words("0" * 25, 25)
        with pytest.raises(BadResolution):
            dequantize_samples([0.5], 30)

    def test_decode_with_small_perturbation(self):
        assert dequantize_samples([0.5 + 1e-12, -0.5], 1) == "10"
        assert dequantize_samples([-0.75, 0.75], 2) == "0011"

    def test_zero_is_off_grid_at_two_bits(self):
        # 0.0 sits exactly between the -0.25 and +0.25 levels, outside the
        # guard band of 1/8
        with pytest.raises(OffGrid):
            dequantize_samples([0.0], 2)

    def test_guard_band_boundary(self):
        b = 3
        guard = 2.0 ** -(b + 1)
        level = quantizer_levels(b)[5]
        assert dequantize_samples([level + guard * 0.999], b) == format(5, "03b")
        with pytest.raises(OffGrid):
            dequantize_samples([level + guard * 1.001], b)

    def test_out_of_range_is_off_grid(self):
        with pytest.raises(OffGrid):
            dequantize_samples([1.2], 8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("b", [1, 8, 24])
    @pytest.mark.parametrize("huge", [1e308, -1e308])
    def test_huge_finite_sample_is_off_grid_without_warnings(self, b, huge):
        with pytest.raises(OffGrid) as info:
            dequantize_samples([quantizer_levels(b)[0], huge], b)
        assert str(info.value) == f"1 of 2 samples off-grid at B={b}; first at index 1: value {huge:.6g}"
        assert info.value.index == 1

    @pytest.mark.parametrize("b", [8, 24])
    def test_one_ulp_outside_the_guard_band(self, b):
        # the test runs on u = v 2^(B-1) + (2^B - 1)/2. Near the bottom word u
        # is exact, so one ulp of v past the guard band is refused. Near the
        # top word u is spaced two ulps of v apart: one ulp past the band
        # rounds back onto its edge and decodes, two ulps are refused
        guard = 2.0 ** -(b + 1)
        bottom, top = quantizer_levels(b)[[0, -1]]
        for edge in (bottom - guard, bottom + guard):
            with pytest.raises(OffGrid):
                dequantize_samples([np.nextafter(edge, 2 * edge - bottom)], b)
        for edge in (top - guard, top + guard):
            once = np.nextafter(edge, 2 * edge - top)
            assert dequantize_samples([once], b) == "1" * b
            with pytest.raises(OffGrid):
                dequantize_samples([np.nextafter(once, 2 * edge - top)], b)

    @pytest.mark.parametrize("b", [1, 2, 4, 8, 12, 24])
    def test_round_trip_under_guard_noise(self, b):
        rng = np.random.default_rng(b)
        bits = "".join(map(str, rng.integers(0, 2, 60 * b)))
        v = quantize_words(bits, b)
        noise = rng.uniform(-1, 1, v.size) * (2.0 ** -(b + 2))
        assert dequantize_samples(v + noise, b) == bits


def word_bits(words, b):
    """The 0/1 bits of B-bit words, MSB first, as a uint8 array."""
    return ((np.asarray(words)[:, None] >> np.arange(b - 1, -1, -1)) & 1).astype(np.uint8).reshape(-1)


def decoded(values, b):
    """The packed core's result as (bits, None) or (None, (message, index))."""
    try:
        packed = _dequantize_packed(values, b)
    except OffGrid as exc:
        return None, (str(exc), exc.index)
    return np.unpackbits(packed, count=np.size(values) * b), None


def oracle_decoded(values, b):
    try:
        return bit_array_dequantize(values, b), None
    except OracleOffGrid as exc:
        return None, (str(exc), exc.index)


class TestPackedCodec:
    """The packed-byte core against the bit-array codec it replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("b", range(1, 25))
    def test_packed_words_samples_agree_with_bit_arrays(self, b):
        rng = np.random.default_rng(200 + b)
        g, nbytes = _group(b)
        assert (g * b) % 8 == 0 and nbytes == g * b // 8 and g in (1, 2, 4, 8)
        # 10,007 words run past NumPy's 8,192-element buffer, so the casting
        # loops behind the reader's unaligned big-endian views run more than
        # once, and leave a short last group wherever a group has 2+ words
        for count in list(range(2 * g + 2)) + [4099, 10_007]:
            words = rng.integers(0, 1 << b, count)
            bits = word_bits(words, b)
            packed = np.packbits(bits)
            samples = _quantize_packed(packed, count, b)
            assert samples.tobytes() == bit_array_quantize(bits, b).tobytes()
            assert np.array_equal(samples, quantizer_levels(b)[words])
            back = _dequantize_packed(samples, b)
            assert back.dtype == np.uint8 and back.tobytes() == packed.tobytes()
            assert np.array_equal(np.unpackbits(back, count=count * b), bit_array_dequantize(samples, b))

    @pytest.mark.parametrize("b", range(1, 25))
    def test_no_words(self, b):
        samples = quantize_words("", b)
        assert samples.dtype == np.float64 and samples.shape == (0,)
        assert dequantize_samples([], b) == ""

    @pytest.mark.parametrize("b", [1, 3, 5, 7, 12, 23])
    def test_bits_past_the_last_word_are_ignored(self, b):
        rng = np.random.default_rng(230 + b)
        count = 2 * _group(b)[0] + 1
        words = rng.integers(0, 1 << b, count)
        packed = np.packbits(word_bits(words, b))
        padded = np.concatenate([packed, [0xFF, 0xFF, 0xFF]]).astype(np.uint8)
        padded[packed.size - 1] |= 0xFF >> ((count * b - 1) % 8 + 1)  # set the last byte's pad bits
        assert np.array_equal(_quantize_packed(padded, count, b), quantizer_levels(b)[words])

    @pytest.mark.parametrize("b", range(1, 25))
    def test_decoder_matches_bit_array_decoder(self, b):
        # samples exactly at +-2^-(B+1) from a level are on the grid, just
        # past it they are not; NaN, +-inf and values outside (-1, 1) never are
        rng = np.random.default_rng(260 + b)
        guard = 2.0 ** -(b + 1)
        levels = quantizer_levels(b)
        for trial in range(40):
            count = int(rng.integers(1, 3 * _group(b)[0] + 3))
            v = levels[rng.integers(0, 1 << b, count)]
            kind = trial % 5
            if kind == 1:
                v = v + rng.choice([-guard, guard], count)
            elif kind == 2:
                v = v + rng.choice([-1.0, 1.0], count) * guard * (1 + 2.0 ** -20)
            elif kind == 3:
                v[rng.integers(0, count, 2)] = rng.choice([np.nan, np.inf, -np.inf], 2)
            elif kind == 4:
                v = v + rng.uniform(-3, 3, count) * guard
                v[rng.integers(0, count)] = rng.choice([1.0, -1.0, 1.5, -2.0])
            got, want = decoded(v, b), oracle_decoded(v, b)
            assert (got[1], None if got[0] is None else got[0].tobytes()) == (
                want[1], None if want[0] is None else want[0].tobytes())

    def test_guard_band_edges_exactly(self):
        for b in (1, 8, 24):
            guard = 2.0 ** -(b + 1)
            level = quantizer_levels(b)[1]
            assert decoded([level + guard, level - guard], b)[1] is None
            assert decoded([level + guard * (1 + 2.0 ** -20)], b)[1][1] == 0

    def test_strided_rows_decode_in_order(self):
        # the CLI decodes a channel's columns of a (frames, N) array in place
        b, rng = 12, np.random.default_rng(290)
        tdm = quantizer_levels(b)[rng.integers(0, 1 << b, (5, 64))]
        stream = tdm[:, 16:48]
        assert _dequantize_packed(stream, b).tobytes() == _dequantize_packed(stream.reshape(-1), b).tobytes()
        tdm[3, 20] = np.nan
        with pytest.raises(OffGrid) as flat:
            _dequantize_packed(tdm[:, 16:48].reshape(-1), b)
        with pytest.raises(OffGrid) as strided:
            _dequantize_packed(tdm[:, 16:48], b)
        assert (str(strided.value), strided.value.index) == (str(flat.value), flat.value.index)
        assert strided.value.index == 3 * 32 + 4

    def test_channel_id_words_the_report(self):
        # a 1-D slice is named by its channel, a (frames, M) stream also by the frame
        b = 8
        stream = np.tile(quantizer_levels(b)[:4], (3, 1))
        stream[2, 1] = 0.1
        with pytest.raises(OffGrid) as plain:
            _dequantize_packed(stream, b)
        with pytest.raises(OffGrid) as framed:
            _dequantize_packed(stream, b, "x")
        with pytest.raises(OffGrid) as sliced:
            _dequantize_packed(stream.reshape(-1), b, "x")
        assert str(plain.value) == "1 of 12 samples off-grid at B=8; first at index 9: value 0.1"
        assert str(framed.value) == f"channel 'x', frame 2: {plain.value}"
        assert str(sliced.value) == f"channel 'x': {plain.value}"
        assert plain.value.index == framed.value.index == sliced.value.index == 9


def assemble(plan, payloads):
    """One frame of payloads as its flat coefficients: details finest first, then the approximation."""
    return assemble_frame(plan.layout, tdm_row(plan, payloads))


def channel_rows(plan, row):
    return {ch.id: row[lo:hi] for ch, (lo, hi) in zip(plan.channels, plan.layout.bounds)}


class TestAssembleFrame:
    def test_canonical_four_channel_layout(self, haar):
        plan = four_channel_plan()
        a, b, c, d = 0.125, -0.375, 0.625, -0.875
        payloads = [
            TributaryPayload.from_samples(f"ch{i}", [v]) for i, v in enumerate((a, b, c, d))
        ]
        # level-1 detail at phases 0 and 1, then the level-2 detail, then the approximation
        np.testing.assert_allclose(assemble(plan, payloads), [a, b, c, d])

    def test_leaf_channel_samples_copied_verbatim(self, haar):
        plan = make_plan(64, 3, [256000, 256000])
        rng = np.random.default_rng(3)
        fast = rng.uniform(-1, 1, 32)
        leaf = rng.uniform(-1, 1, 32)
        frame = assemble(
            plan,
            [
                TributaryPayload.from_samples("ch0", fast),
                TributaryPayload.from_samples("ch1", leaf),
            ],
        )
        assert plan.layout.depth == 1
        np.testing.assert_array_equal(frame[32:], leaf)
        np.testing.assert_array_equal(frame[:32], fast)

    def test_short_payload_rejected(self):
        plan = four_channel_plan()
        payloads = [TributaryPayload.from_samples(f"ch{i}", [0.0]) for i in range(3)]
        payloads.append(TributaryPayload.from_samples("ch3", [0.0, 0.0]))
        with pytest.raises(PayloadLengthMismatch):
            assemble(plan, payloads)

    def test_missing_and_duplicate_payloads(self):
        plan = four_channel_plan()
        short = [TributaryPayload.from_samples(f"ch{i}", [0.0]) for i in range(3)]
        with pytest.raises(MissingChannel):
            assemble(plan, short)
        doubled = short + [
            TributaryPayload.from_samples("ch2", [0.0]),
            TributaryPayload.from_samples("ch3", [0.0]),
        ]
        with pytest.raises(DuplicatePayload):
            assemble(plan, doubled)

    def test_payload_of_undeclared_channel_rejected(self):
        plan = four_channel_plan()
        payloads = [TributaryPayload.from_samples(f"ch{i}", [0.0]) for i in range(4)]
        payloads.append(TributaryPayload.from_samples("stray", [0.0]))
        with pytest.raises(MissingChannel, match="payload\\(s\\) for undeclared channel\\(s\\): stray"):
            assemble(plan, payloads)

    def test_digital_payloads_quantized_in_place(self):
        plan = four_channel_plan(b=2)
        payloads = [TributaryPayload.from_bits(f"ch{i}", bits) for i, bits in
                    enumerate(("00", "01", "10", "11"))]
        np.testing.assert_allclose(assemble(plan, payloads), [-0.75, -0.25, 0.25, 0.75])

    def test_samples_must_be_one_dimensional(self, haar):
        # a (1, 1) array holds the right number of samples but is not a sample block
        plan = four_channel_plan()
        payloads = [TributaryPayload.from_samples("ch0", [[0.0]])]
        payloads += [TributaryPayload.from_samples(f"ch{i}", [0.0]) for i in range(1, 4)]
        with pytest.raises(PayloadLengthMismatch):
            assemble(plan, payloads)
        with pytest.raises(PayloadLengthMismatch):
            mux(plan, haar, payloads)


class TestDisassembleFrame:
    def test_inverse_of_assemble(self):
        plan = four_channel_plan()
        values = (0.1, 0.2, 0.3, 0.4)
        payloads = [TributaryPayload.from_samples(f"ch{i}", [v]) for i, v in enumerate(values)]
        row = disassemble_frame(plan.layout, assemble(plan, payloads))
        assert [(cid, r.tolist()) for cid, r in channel_rows(plan, row).items()] == [
            (f"ch{i}", [v]) for i, v in enumerate(values)
        ]

    def test_phase_slot_reads_interleaved_indices(self):
        plan = make_plan(64, 3, [256000, 64000, 64000, 64000, 64000])
        frame = assemble(
            plan,
            [TributaryPayload.from_samples("ch0", np.arange(32.0) / 32.0)]
            + [TributaryPayload.from_samples(f"ch{i}", np.full(8, i / 8.0)) for i in (1, 2, 3, 4)],
        )
        # ch2 sits at band-2 decimation 2 phase 1: indices 1, 3, 5, ... of flat[32:48]
        np.testing.assert_array_equal(frame[32:48][1::2], np.full(8, 2 / 8.0))
        recovered = channel_rows(plan, disassemble_frame(plan.layout, frame))
        np.testing.assert_array_equal(recovered["ch2"], np.full(8, 2 / 8.0))

    def test_zero_frame_gives_zero_payloads(self):
        plan = four_channel_plan()
        assert not disassemble_frame(plan.layout, np.zeros(4)).any()

    def test_depth_mismatch_rejected(self):
        # flat coefficients carry no depth: what no longer fits the layout is
        # a frame of another length, which "clip" would otherwise read silently
        for plan in (four_channel_plan(), make_plan(64, 3, [256000] + [64000] * 4)):
            for bad in (np.zeros(2 * plan.blocklength), np.zeros((3, plan.blocklength // 2)), np.float64(0.0)):
                for permute in (assemble_frame, disassemble_frame):
                    with pytest.raises(ShapeMismatch, match="do not fit a layout of"):
                        permute(plan.layout, bad)

    @pytest.mark.parametrize("in_order", [False, True], ids=["permuted", "in-order"])
    def test_block_round_trip(self, in_order):
        plan = ladder_plan(64, 3) if in_order else make_plan(64, 3, [256000] + [64000] * 4)
        layout = plan.layout
        assert layout.in_order == in_order
        rows = np.random.default_rng(8).uniform(-1, 1, (5, 64))
        flat = assemble_frame(layout, rows)
        assert flat.shape == (5, 64)
        for k in range(5):  # each frame against a scatter by fancy indexing
            want = np.empty(64)
            want[layout.index] = rows[k]
            assert flat[k].tobytes() == want.tobytes()
        out = np.empty((5, 64))
        back = disassemble_frame(layout, flat, out)
        assert back.tobytes() == rows.tobytes()
        # in order both return their input and leave ``out`` alone; else they write ``out``
        assert (flat is rows and back is flat) if in_order else (back is out)


class TestMux:
    def test_scale_leaf_unit_sample(self, haar):
        plan = four_channel_plan()
        payloads = [
            TributaryPayload.from_samples(f"ch{i}", [1.0 if i == 3 else 0.0]) for i in range(4)
        ]
        signal = mux(plan, haar, payloads)
        np.testing.assert_allclose(signal.samples, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_deep_detail_unit_sample(self, haar):
        plan = four_channel_plan()
        payloads = [
            TributaryPayload.from_samples(f"ch{i}", [1.0 if i == 2 else 0.0]) for i in range(4)
        ]
        signal = mux(plan, haar, payloads)
        np.testing.assert_allclose(signal.samples, [0.5, 0.5, -0.5, -0.5], atol=1e-15)

    def test_all_zero_payloads(self, db4):
        plan = four_channel_plan()
        payloads = [TributaryPayload.from_samples(f"ch{i}", [0.0]) for i in range(4)]
        assert not mux(plan, db4, payloads).samples.any()

    def test_linearity_in_sample_mode(self, db4):
        plan = make_plan(32, 3, [256000, 128000, 64000, 64000])
        rng = np.random.default_rng(9)
        counts = [16, 8, 4, 4]
        pa = [TributaryPayload.from_samples(f"ch{i}", rng.uniform(-1, 1, c)) for i, c in enumerate(counts)]
        pb = [TributaryPayload.from_samples(f"ch{i}", rng.uniform(-1, 1, c)) for i, c in enumerate(counts)]
        alpha, beta = 0.6, -1.1
        mixed = [
            TributaryPayload.from_samples(a.id, alpha * a.samples + beta * b.samples)
            for a, b in zip(pa, pb)
        ]
        lhs = mux(plan, db4, mixed).samples
        rhs = alpha * mux(plan, db4, pa).samples + beta * mux(plan, db4, pb).samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_parseval_bridge(self, db4):
        plan = make_plan(64, 3, [256000, 128000, 64000, 64000])
        rng = np.random.default_rng(21)
        # channel sample counts: 32, 16, 8, 8
        payloads = [
            TributaryPayload.from_samples("ch0", rng.uniform(-1, 1, 32)),
            TributaryPayload.from_samples("ch1", rng.uniform(-1, 1, 16)),
            TributaryPayload.from_samples("ch2", rng.uniform(-1, 1, 8)),
            TributaryPayload.from_samples("ch3", rng.uniform(-1, 1, 8)),
        ]
        signal = mux(plan, db4, payloads).samples
        coeff_energy = sum(float(np.dot(p.samples, p.samples)) for p in payloads)
        rel = abs(float(np.dot(signal, signal)) - coeff_energy) / coeff_energy
        assert rel <= 1e-9


class TestDemux:
    def test_recovers_scale_leaf(self, haar):
        plan = four_channel_plan()
        out = demux(plan, haar, np.array([0.5, 0.5, 0.5, 0.5]), digital=False)
        got = {p.id: p.samples for p in out}
        np.testing.assert_allclose(
            [got["ch0"], got["ch1"], got["ch2"], got["ch3"]],
            [[0.0], [0.0], [0.0], [1.0]],
            atol=1e-12,
        )

    def test_round_trip_sample_mode(self, db4):
        plan = make_plan(64, 3, [256000, 128000, 64000, 64000])
        rng = np.random.default_rng(33)
        counts = [32, 16, 8, 8]
        payloads = [
            TributaryPayload.from_samples(f"ch{i}", rng.uniform(-1, 1, c))
            for i, c in enumerate(counts)
        ]
        out = demux(plan, db4, mux(plan, db4, payloads), digital=False)
        for sent, got in zip(payloads, out):
            assert sent.id == got.id
            np.testing.assert_allclose(got.samples, sent.samples, atol=1e-10)

    def test_wrong_length_rejected(self, haar):
        plan = four_channel_plan()
        with pytest.raises(ShapeMismatch):
            demux(plan, haar, np.zeros(8))

    def test_digest_mismatch_rejected(self, haar):
        plan = four_channel_plan()
        other = make_plan(4, 2, [128000, 64000, 64000])
        payloads = [TributaryPayload.from_samples(f"ch{i}", [0.0]) for i in range(4)]
        signal = mux(plan, haar, payloads)
        with pytest.raises(ShapeMismatch):
            demux(other, haar, signal)

    def test_wrong_wavelet_flags_off_grid_with_channel(self, haar, db4):
        plan = make_plan(64, 3, [64000] * 8)
        rng = np.random.default_rng(55)
        payloads = [
            TributaryPayload.from_bits(ch.id, "".join(map(str, rng.integers(0, 2, 64))))
            for ch in plan.channels
        ]
        signal = mux(plan, db4, payloads)
        with pytest.raises(OffGrid, match="channel"):
            demux(plan, haar, MuxedSignal(signal.samples))  # digest stripped

    def test_nan_sample_flags_off_grid(self, db4):
        plan = make_plan(64, 3, [64000] * 8)
        rng = np.random.default_rng(56)
        payloads = [
            TributaryPayload.from_bits(ch.id, "".join(map(str, rng.integers(0, 2, 64))))
            for ch in plan.channels
        ]
        line = mux(plan, db4, payloads)
        samples = line.samples.copy()
        samples[5] = np.nan
        # both payload modes name the first channel the NaN reaches in TDM order
        with pytest.raises(OffGrid, match=r"^channel 'ch1': "):
            demux(plan, db4, MuxedSignal(samples, line.plan_digest))
        with pytest.raises(OffGrid, match=r"^channel 'ch1', frame 0: sample 0 is nan; "):
            demux(plan, db4, MuxedSignal(samples, line.plan_digest), digital=False)

    def test_off_grid_error_names_first_bad_channel(self, db4):
        # ch2's samples 3 and 5 and ch4's sample 0 lie between levels; the error is ch2's alone
        plan = make_plan(64, 3, [256000] + [64000] * 4)
        rng = np.random.default_rng(57)
        rows = {ch.id: quantize_words(random_bits(rng, (hi - lo) * 8), 8)
                for ch, (lo, hi) in zip(plan.channels, plan.layout.bounds)}
        rows["ch2"][[3, 5]] = 0.1, -0.1
        rows["ch4"][0] = 0.1
        line = mux(plan, db4, [TributaryPayload.from_samples(cid, v) for cid, v in rows.items()])
        with pytest.raises(OffGrid) as info:
            demux(plan, db4, line)
        assert str(info.value) == "channel 'ch2': 2 of 8 samples off-grid at B=8; first at index 3: value 0.1"
        assert info.value.index == 3

    @pytest.mark.parametrize("wavelet", ["haar", "db4"])
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_digital_round_trip_every_composition(self, wavelet, j):
        system = make_wavelet_system(wavelet)
        n = 1 << (j + 3)
        rng = np.random.default_rng(1000 * j)
        for comp in enumerate_compositions(j):
            rates = []
            for tier, count in enumerate(comp, start=1):
                rates.extend([64000 << (j - tier)] * count)
            plan = make_plan(n, j, rates)
            payloads = []
            for ch in plan.channels:
                nbits = (ch.rate // 64000) * (n >> j) * plan.resolution
                payloads.append(
                    TributaryPayload.from_bits(ch.id, "".join(map(str, rng.integers(0, 2, nbits))))
                )
            recovered = demux(plan, system, mux(plan, system, payloads))
            assert [(p.id, p.bits) for p in recovered] == [(p.id, p.bits) for p in payloads]

    def test_round_trip_with_random_lattice_wavelet(self):
        rng = np.random.default_rng(77)
        system = make_wavelet_system(random_scaling_filter(rng, 3), name="lattice6")
        plan = make_plan(64, 3, [256000, 128000, 64000, 64000])
        payloads = []
        for ch, count in zip(plan.channels, (32, 16, 8, 8)):
            payloads.append(
                TributaryPayload.from_bits(ch.id, "".join(map(str, rng.integers(0, 2, count * 8))))
            )
        recovered = demux(plan, system, mux(plan, system, payloads))
        assert [(p.id, p.bits) for p in recovered] == [(p.id, p.bits) for p in payloads]


def test_payload_requires_exactly_one_mode():
    with pytest.raises(ValueError):
        TributaryPayload(id="x")
    with pytest.raises(ValueError):
        TributaryPayload(id="x", bits="01", samples=np.zeros(1))


# a cast to float drops the imaginary part with a ComplexWarning, a
# RuntimeWarning that the test configuration makes an error, and parses text
NOT_REAL = {"complex": lambda x: np.asarray(x) + 0j, "text": lambda x: np.asarray(x).astype(str)}


@pytest.mark.parametrize("kind", sorted(NOT_REAL))
class TestRealSamples:
    def test_payload_samples(self, kind):
        with pytest.raises(DataError, match=r"channel 'a': samples must be real numbers"):
            TributaryPayload.from_samples("a", NOT_REAL[kind]([0.5, 0.0, 0.0, 0.0]))

    def test_mux_frames(self, kind, haar):
        with pytest.raises(DataError, match="TDM array: samples must be real numbers"):
            mux_frames(make_plan(8, 2, [64000] * 4), haar, NOT_REAL[kind](np.zeros((1, 8))))

    def test_received_line(self, kind, haar):
        plan = make_plan(8, 2, [64000] * 4)
        line = NOT_REAL[kind](np.zeros(8))
        for receive in (demux_frames, demux):
            with pytest.raises(DataError, match="signal: samples must be real numbers"):
                receive(plan, haar, line)
        with pytest.raises(DataError, match="signal: samples must be real numbers"):
            MuxedSignal(line)

    def test_codec_and_frame_entries(self, kind, haar):
        plan = make_plan(8, 2, [64000] * 4)
        with pytest.raises(DataError, match="samples: samples must be real numbers"):
            dequantize_samples(NOT_REAL[kind](np.full(4, 0.5 / 256)), 8)
        for scatter_or_gather in (assemble_frame, disassemble_frame):
            with pytest.raises(DataError, match="frames: samples must be real numbers"):
                scatter_or_gather(plan.layout, NOT_REAL[kind](np.zeros(8)))


def test_real_dtypes_are_read_as_float64():
    for samples in ([1, 0, 0, 0], np.array([True, False, False, False]), np.zeros(4, np.float32), np.zeros(4, np.int8)):
        payload = TributaryPayload.from_samples("a", samples)
        assert payload.samples.dtype == np.float64
        assert payload.samples.tolist() == np.asarray(samples, dtype=float).tolist()


class TestFrameLayout:
    def test_every_composition_against_slot_walk_oracle(self):
        # all 2076 compositions for J = 1..6 at N = 2^(J+1), each declared fastest tier first and
        # once more in a seeded shuffled order; J <= 5 declared fastest first runs under haar, db4
        # and a random lattice wavelet, every other plan under one of the three in turn
        rng = np.random.default_rng(4)
        systems = [make_wavelet_system("haar"), make_wavelet_system("db4"),
                   make_wavelet_system(random_scaling_filter(rng, 3), name="lattice6")]
        matrices = {}
        swept = 0
        for j in range(1, 7):
            n = 1 << (j + 1)
            for comp in enumerate_compositions(j):
                tiers = [64000 << (j - tier) for tier, count in enumerate(comp, start=1) for _ in range(count)]
                for rates in (tiers, [tiers[k] for k in rng.permutation(len(tiers))]):
                    plan = make_plan(n, j, rates)
                    layout = plan.layout
                    assert np.array_equal(np.sort(layout.index), np.arange(n))
                    samples = {ch.id: rng.uniform(-1, 1, hi - lo) for ch, (lo, hi) in zip(plan.channels, layout.bounds)}
                    flat = slot_walk_coefficients(layout.allocation, samples, n)
                    sent = [TributaryPayload.from_samples(cid, v) for cid, v in samples.items()]
                    bits = random_payloads(plan, swept)
                    for system in systems if j <= 5 and rates is tiers else [systems[swept % 3]]:
                        key = (n, layout.depth, system.name)
                        if key not in matrices:
                            matrices[key] = dense_synthesis_matrix(n, layout.depth, system.g, system.h)
                        line = mux(plan, system, sent)
                        np.testing.assert_allclose(line.samples, matrices[key] @ flat, rtol=0, atol=1e-12)
                        for want, got in zip(sent, demux(plan, system, line, digital=False)):
                            assert got.id == want.id and np.all(np.abs(got.samples - want.samples) <= 1e-10)
                        recovered = demux(plan, system, mux(plan, system, bits))
                        assert [(p.id, p.bits) for p in recovered] == [(p.id, p.bits) for p in bits]
                    swept += 1
        assert swept == 2 * 2076

    def test_plan_validated_once_across_calls(self, db4, monkeypatch):
        validate = wavemux.rateplan.validate_plan
        calls = []
        monkeypatch.setattr(wavemux.rateplan, "validate_plan", lambda plan: calls.append(plan) or validate(plan))
        plan = make_plan(64, 3, [256000, 128000, 64000, 64000])
        payloads = [TributaryPayload.from_samples(ch.id, np.zeros(c)) for ch, c in zip(plan.channels, (32, 16, 8, 8))]
        for _ in range(25):
            demux(plan, db4, mux(plan, db4, payloads), digital=False)
        assert len(calls) == 1

    def test_layouts_compare_by_identity(self):
        # comparing index and inverse field by field would ask an array for one truth value
        layout = make_plan(64, 3, [256000] + [64000] * 4).layout
        assert (layout == layout) is True
        assert (layout == make_plan(64, 3, [256000] + [64000] * 4).layout) is False

    def test_index_is_read_only(self):
        with pytest.raises(ValueError):
            four_channel_plan().layout.index[0] = 1

    def test_inverse_is_read_only_or_none_in_order(self):
        layout = make_plan(64, 3, [256000] + [64000] * 4).layout
        assert not layout.in_order
        assert np.array_equal(layout.inverse[layout.index], np.arange(64))
        with pytest.raises(ValueError):
            layout.inverse[0] = 1
        # an in-order layout holds no second index
        assert ladder_plan(1 << 10, 6).layout.inverse is None
        assert four_channel_plan().layout.in_order and four_channel_plan().layout.inverse is None

    def test_in_order_when_the_index_is_the_identity(self):
        # an octave ladder declared finest band first is already in Mallat's order
        assert ladder_plan(1 << 10, 6).layout.in_order
        spectrum = RatePlan(4096, 4, 8000, 8, tuple(Channel(cid, units * 8000) for cid, units in
                                                     (("a", 8), ("b", 4), ("c", 2), ("d", 1), ("e", 1))))
        assert spectrum.layout.in_order
        voice = RatePlan(64, 3, 64000, 8, (Channel("data", 256000),) + tuple(
            Channel(f"voice{k}", 64000) for k in range(1, 5)))
        assert not voice.layout.in_order
        for j in range(1, 5):
            for comp in enumerate_compositions(j):
                rates = [64000 << (j - tier) for tier, count in enumerate(comp, start=1) for _ in range(count)]
                layout = make_plan(1 << (j + 1), j, rates).layout
                assert layout.in_order == (layout.index.tolist() == list(range(1 << (j + 1))))


class TestFrameCodec:
    def test_mixed_digital_and_sample_payloads_round_trip(self, db4):
        plan = make_plan(64, 3, [256000] + [64000] * 4)
        rng = np.random.default_rng(58)
        payloads = []
        for k, (ch, (lo, hi)) in enumerate(zip(plan.channels, plan.layout.bounds)):
            if k % 2:
                payloads.append(TributaryPayload.from_samples(ch.id, rng.uniform(-1, 1, hi - lo)))
            else:
                payloads.append(TributaryPayload.from_bits(ch.id, random_bits(rng, (hi - lo) * 8)))
        for sent, got in zip(payloads, demux(plan, db4, mux(plan, db4, payloads), digital=False)):
            assert got.id == sent.id
            if sent.is_digital:
                assert dequantize_samples(got.samples, 8) == sent.bits
            else:
                np.testing.assert_allclose(got.samples, sent.samples, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("first, second, error, message", [
        ("2" * 8 + "0" * 56, "0" * 63, BadLength, "bit strings may contain only '0' and '1'"),
        ("0" * 63, "2" * 8 + "0" * 56, PayloadLengthMismatch, "channel 'ch1': 63 bits, expected 8 samples * 8 bits"),
        (np.zeros(9), "2" * 64, PayloadLengthMismatch, "channel 'ch1': samples of shape (9,), expected (8,)"),
    ])
    def test_first_bad_channel_in_declaration_order_wins(self, first, second, error, message):
        plan = make_plan(64, 3, [256000] + [64000] * 4)
        payloads = [TributaryPayload.from_bits("ch0", "0" * 256)]
        for cid, content in (("ch1", first), ("ch2", second)):
            if isinstance(content, str):
                payloads.append(TributaryPayload.from_bits(cid, content))
            else:
                payloads.append(TributaryPayload.from_samples(cid, content))
        payloads += [TributaryPayload.from_bits(cid, "0" * 64) for cid in ("ch3", "ch4")]
        with pytest.raises(error) as info:
            tdm_row(plan, payloads)
        assert str(info.value) == message

    def test_one_codec_call_per_frame(self, db4, monkeypatch):
        calls = {"quantize": 0, "dequantize": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(wavemux.framing, "quantize_words", counted("quantize", wavemux.framing.quantize_words))
        monkeypatch.setattr(wavemux.framing, "dequantize_samples",
                            counted("dequantize", wavemux.framing.dequantize_samples))
        plan = make_plan(64, 3, [256000] + [64000] * 4)
        for seed in range(50):
            payloads = random_payloads(plan, seed)
            recovered = demux(plan, db4, mux(plan, db4, payloads))
            assert [p.bits for p in recovered] == [p.bits for p in payloads]
        assert calls == {"quantize": 50, "dequantize": 50}

    @pytest.mark.filterwarnings("error")
    def test_line_beyond_the_float_range_rejected(self, db4):
        plan = make_plan(64, 3, [256000] + [64000] * 4)
        with pytest.raises(DataError, match="^synthesis overflows the float range"):
            mux_frames(plan, db4, np.full((2, 64), 1.7e308))
        payloads = [TributaryPayload.from_samples(ch.id, np.full(hi - lo, -1.7e308))
                    for ch, (lo, hi) in zip(plan.channels, plan.layout.bounds)]
        with pytest.raises(DataError, match="^synthesis overflows the float range"):
            mux(plan, db4, payloads)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_payload_rejected(self, db4, bad):
        plan = make_plan(64, 3, [256000] + [64000] * 4)
        samples = {ch.id: np.zeros(hi - lo) for ch, (lo, hi) in zip(plan.channels, plan.layout.bounds)}
        samples["ch2"][4] = bad
        payloads = [TributaryPayload.from_samples(cid, v) for cid, v in samples.items()]
        with pytest.raises(NonFiniteSample) as info:
            mux(plan, db4, payloads)
        assert info.value.channel == "ch2"
        assert "channel 'ch2'" in str(info.value)
        tdm = np.zeros((3, 64))
        tdm[1, 60] = bad
        with pytest.raises(NonFiniteSample) as info:
            mux_frames(plan, db4, tdm)
        assert info.value.channel == "ch4"
        assert str(info.value).startswith("channel 'ch4', frame 1: ")


def ladder_plan(n, j):
    """One channel per detail level plus a basic-rate leaf: the deepest level is n >> j long."""
    return make_plan(n, j, [64000 << (j - level) for level in range(1, j + 1)] + [64000])


class TestFrameFunctions:
    N = 1 << 14
    BLOCK = max(1, wavemux.framing._BLOCK_SAMPLES // N)

    @pytest.mark.parametrize("plan", [make_plan(N, 2, [64000] * 4), ladder_plan(N, 13)],
                             ids=["equal-rate", "ladder"])
    @pytest.mark.parametrize("wavelet", ["haar", "db4", "lattice"])
    def test_blocks_match_frame_by_frame_calls(self, plan, wavelet):
        if wavelet == "lattice":
            # L = 12: on the ladder plan the deepest level splits M = 4 samples
            system = make_wavelet_system(random_scaling_filter(np.random.default_rng(61), 6))
        else:
            system = make_wavelet_system(wavelet)
        rng = np.random.default_rng(62)
        for frames in sorted({1, self.BLOCK - 1, self.BLOCK, self.BLOCK + 1, 2 * self.BLOCK + 1} - {0}):
            tdm = rng.uniform(-1, 1, (frames, self.N))
            line = mux_frames(plan, system, tdm)
            per_row = [mux(plan, system, [TributaryPayload.from_samples(ch.id, row[lo:hi])
                                          for ch, (lo, hi) in zip(plan.channels, plan.layout.bounds)])
                       for row in tdm]
            assert line.tobytes() == np.concatenate([s.samples for s in per_row]).tobytes()
            rows = demux_frames(plan, system, line)
            per_frame = np.stack([np.concatenate([p.samples for p in demux(plan, system, frame, digital=False)])
                                  for frame in line.reshape(frames, self.N)])
            assert rows.shape == (frames, self.N)
            assert rows.tobytes() == per_frame.tobytes()

    def test_threads_keep_their_own_scratch(self, db4):
        # the cascades reuse scratch memory per thread; NumPy releases the
        # interpreter lock inside array operations, so threads interleave
        plan = make_plan(1024, 3, [256000] + [64000] * 4)
        rng = np.random.default_rng(63)
        inputs = [rng.uniform(-1, 1, (70, 1024)) for _ in range(6)]
        expected = [(mux_frames(plan, db4, tdm), tdm) for tdm in inputs]
        failures = []

        def worker(k):
            for _ in range(5):
                line, tdm = expected[k]
                got = mux_frames(plan, db4, tdm)
                back = demux_frames(plan, db4, got)
                if got.tobytes() != line.tobytes() or np.max(np.abs(back - tdm)) > 1e-10:
                    failures.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    @pytest.mark.parametrize("tdm", [np.zeros(64), np.zeros((0, 64)), np.zeros((2, 32))],
                             ids=["1-D", "no frames", "wrong width"])
    def test_mux_frames_shape_mismatch(self, db4, tdm):
        with pytest.raises(ShapeMismatch):
            mux_frames(make_plan(64, 3, [256000] + [64000] * 4), db4, tdm)

    def test_demux_frames_rejects_a_recovered_nan(self, db4):
        # a corrupt line must not come back as rows holding NaN: demux_frames
        # raises what demux(digital=False) raises on the frame alone, with
        # the frame and index counted over the whole line
        plan = make_plan(64, 3, [256000] + [64000] * 4)
        line = np.zeros(2 * 64)
        line[64 + 7] = np.nan
        with pytest.raises(OffGrid) as alone:
            demux(plan, db4, line[64:], digital=False)
        with pytest.raises(OffGrid) as framed:
            demux_frames(plan, db4, line)
        assert str(alone.value).startswith("channel ") and ", frame 0: sample " in str(alone.value)
        assert str(framed.value) == str(alone.value).replace(", frame 0: ", ", frame 1: ")
        assert framed.value.index == 64 + alone.value.index

    @pytest.mark.parametrize("line", [np.zeros((2, 64)), np.zeros(64 + 3), np.zeros(0)],
                             ids=["2-D", "partial frame", "empty"])
    def test_demux_frames_shape_mismatch(self, db4, line):
        with pytest.raises(ShapeMismatch):
            demux_frames(make_plan(64, 3, [256000] + [64000] * 4), db4, line)


class TestReusedMemory:
    """Scratch memory is reused at every frame size: results never share it."""

    @pytest.fixture(params=[256, 1 << 15])
    def n(self, request):
        return request.param

    @pytest.fixture(params=["in-order", "permuted"])
    def plan(self, request, n):
        if request.param == "in-order":
            plan = ladder_plan(n, 8)
        else:
            plan = make_plan(n, 6, [64000 * 32, 64000 * 16] + [64000] * 16)
        assert plan.layout.in_order == (request.param == "in-order")
        return plan

    def payloads(self, plan, seed, digital):
        if digital:
            return random_payloads(plan, seed)
        rng = np.random.default_rng(seed)
        return [TributaryPayload.from_samples(ch.id, rng.uniform(-1, 1, hi - lo))
                for ch, (lo, hi) in zip(plan.channels, plan.layout.bounds)]

    @pytest.mark.parametrize("digital", [False, True], ids=["samples", "digital"])
    @pytest.mark.parametrize("wavelet", ["haar", "db4"])
    def test_one_frame_results_survive_the_next_call(self, plan, n, wavelet, digital):
        system, layout = make_wavelet_system(wavelet), plan.layout
        first, second = self.payloads(plan, 70, digital), self.payloads(plan, 71, digital)
        sent = [p.bits if digital else p.samples.copy() for p in first]
        line = mux(plan, system, first)
        kept_line = line.samples.copy()
        back = demux(plan, system, line, digital=digital)
        kept_back = [p.bits if digital else p.samples.copy() for p in back]
        demux(plan, system, mux(plan, system, second), digital=digital)
        assert line.samples.tobytes() == kept_line.tobytes()
        for got, kept, want, payload in zip(back, kept_back, sent, first):
            if digital:
                assert got.bits == kept == want
            else:
                assert got.samples.tobytes() == kept.tobytes()
                assert payload.samples.tobytes() == want.tobytes()  # the caller's input is untouched
        # the transform of a row scattered and gathered by fancy indexing, bit for bit
        flat = np.empty(n)
        flat[layout.index] = tdm_row(plan, first)
        assert line.samples.tobytes() == synthesize(flat, layout.depth, system).tobytes()
        if not digital:
            oracle_row = analyze(line.samples, layout.depth, system)[layout.index]
            assert np.concatenate([p.samples for p in back]).tobytes() == oracle_row.tobytes()

    @pytest.mark.parametrize("wavelet", ["haar", "db4"])
    def test_frame_batches_survive_the_next_call(self, plan, n, wavelet):
        # 3 frames of 2^15 samples make one whole block of 2 and a shorter one;
        # 3 of 256 make one short block
        system, layout = make_wavelet_system(wavelet), plan.layout
        rng = np.random.default_rng(72)
        first, second = rng.uniform(-1, 1, (2, 3, n))
        line = mux_frames(plan, system, first)
        kept_line = line.copy()
        rows = demux_frames(plan, system, line)
        kept_rows = rows.copy()
        demux_frames(plan, system, mux_frames(plan, system, second))
        assert line.tobytes() == kept_line.tobytes()
        assert rows.tobytes() == kept_rows.tobytes()
        for k, frame in enumerate(line.reshape(3, n)):
            flat = np.empty(n)
            flat[layout.index] = first[k]
            assert frame.tobytes() == synthesize(flat, layout.depth, system).tobytes()
            assert rows[k].tobytes() == analyze(frame, layout.depth, system)[layout.index].tobytes()

    @pytest.mark.parametrize("wavelet", ["haar", "db4"])
    def test_results_own_exactly_their_samples(self, plan, n, wavelet):
        # a result that views a larger array keeps all of it alive: a line of N
        # samples held in N + L - 2 floats cannot reuse the chunk that a
        # recovered row of N frees, so a caller loop that keeps each result
        # until the next call made the allocator trim and regrow its heap
        system = make_wavelet_system(wavelet)
        line = mux(plan, system, self.payloads(plan, 74, digital=False)).samples
        rows = demux_frames(plan, system, line)
        recovered = demux(plan, system, line, digital=False)
        for array in (line, rows, recovered[0].samples, mux_frames(plan, system, np.stack([rows[0]] * 3))):
            owner = array if array.base is None else array.base
            assert owner.nbytes == 8 * n * -(-array.size // n)

    def test_in_order_frames_take_no_fresh_memory_but_their_result(self, db4):
        # counted by tracemalloc, not timed: after one warm-up call, mux
        # allocates only the line and sample-mode demux only the recovered
        # row plus its one-byte-per-sample finiteness mask
        n = 1 << 16
        plan = ladder_plan(n, 8)
        assert plan.layout.in_order
        payloads = self.payloads(plan, 73, digital=False)
        demux(plan, db4, mux(plan, db4, payloads), digital=False)
        tracemalloc.start()
        try:
            line = mux(plan, db4, payloads)
            mux_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            demux(plan, db4, line, digital=False)
            demux_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        size = 8 * n
        assert mux_peak <= 1.05 * size
        assert demux_peak <= 1.15 * size


class TestTransformNames:
    """Every frame path calls the four transform names, looked up in wavemux.framing when it runs.

    A wrapper bound to one of those names there (as a tracer does) then
    sees every frame; a path that bypassed them would hide its work.
    """

    NAMES = ("analyze", "synthesize", "assemble_frame", "disassemble_frame")
    PLAN = {"N": 64, "J": 3, "R_bps": 64000, "B": 8,
            "channels": [{"id": "data", "rate_bps": 256000}] + [{"id": f"v{k}", "rate_bps": 64000} for k in range(4)]}

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            def counted(*args, _name=name, _fn=getattr(wavemux.framing, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(wavemux.framing, name, counted)
        return counts

    @pytest.mark.parametrize("in_order", [False, True], ids=["permuted", "in-order"])
    def test_library_calls_reach_every_name(self, db4, counts, in_order):
        plan = ladder_plan(64, 3) if in_order else make_plan(64, 3, [256000] + [64000] * 4)
        assert plan.layout.in_order == in_order
        payloads = random_payloads(plan, 5)
        line = mux(plan, db4, payloads)
        assert counts == {"analyze": 0, "synthesize": 1, "assemble_frame": 1, "disassemble_frame": 0}
        assert [p.bits for p in demux(plan, db4, line)] == [p.bits for p in payloads]
        assert counts == dict.fromkeys(self.NAMES, 1)
        tdm = np.random.default_rng(6).uniform(-1, 1, (3, 64))  # one block
        rows = demux_frames(plan, db4, mux_frames(plan, db4, tdm))
        assert np.max(np.abs(rows - tdm)) <= 1e-10
        assert counts == dict.fromkeys(self.NAMES, 2)

    def test_cli_mux_and_demux_reach_every_name(self, tmp_path, counts):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(self.PLAN))
        payloads, recovered, line = tmp_path / "payloads", tmp_path / "recovered", tmp_path / "line.f64"
        payloads.mkdir()
        rng = np.random.default_rng(7)
        sent = {}
        for ch, samples in zip(self.PLAN["channels"], (32, 8, 8, 8, 8)):
            sent[ch["id"]] = rng.bytes(2 * samples)  # two frames of 8-bit words
            (payloads / f"{ch['id']}.bits").write_bytes(sent[ch["id"]])
        common = ["--plan", str(plan), "--wavelet", "db4"]
        assert main(["mux", str(payloads), *common, "--out", str(line)]) == 0
        assert counts == {"analyze": 0, "synthesize": 1, "assemble_frame": 1, "disassemble_frame": 0}
        assert main(["demux", str(line), *common, "--out", str(recovered)]) == 0
        assert counts == dict.fromkeys(self.NAMES, 1)
        assert {cid: (recovered / f"{cid}.bits").read_bytes() for cid in sent} == sent
