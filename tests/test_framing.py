"""Quantizer, frame assembly, and the end-to-end mux/demux chain."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import wavemux.framing
import wavemux.rateplan
from wavemux import (
    BadLength,
    BadResolution,
    Channel,
    DuplicateChannel,
    MissingChannel,
    MuxedSignal,
    OffGrid,
    PayloadLengthMismatch,
    RatePlan,
    ShapeMismatch,
    TributaryPayload,
    assemble_frame,
    NonFiniteSample,
    demux,
    demux_frames,
    dequantize_samples,
    disassemble_frame,
    enumerate_compositions,
    make_wavelet_system,
    mux,
    mux_frames,
    quantize_words,
    random_payloads,
    tdm_row,
)
from wavemux.framing import _QUANTIZE_BLOCK
from wavemux.mra import CoefficientFrame
from oracles import dense_synthesis_matrix, quantizer_levels, random_scaling_filter, slot_walk_coefficients


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
        # the stream spans two whole quantizer blocks and part of a third
        rng = np.random.default_rng(100 + b)
        words = rng.integers(0, 1 << b, 2 * _QUANTIZE_BLOCK + 37)
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

    @pytest.mark.parametrize("b", [1, 2, 4, 8, 12, 24])
    def test_round_trip_under_guard_noise(self, b):
        rng = np.random.default_rng(b)
        bits = "".join(map(str, rng.integers(0, 2, 60 * b)))
        v = quantize_words(bits, b)
        noise = rng.uniform(-1, 1, v.size) * (2.0 ** -(b + 2))
        assert dequantize_samples(v + noise, b) == bits


def assemble(plan, payloads):
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
        frame = assemble(plan, payloads)
        np.testing.assert_allclose(frame.details[0], [a, b])  # phases 0, 1
        np.testing.assert_allclose(frame.details[1], [c])
        np.testing.assert_allclose(frame.approx, [d])

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
        assert frame.depth == 1
        np.testing.assert_array_equal(frame.approx, leaf)
        np.testing.assert_array_equal(frame.details[0], fast)

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
        with pytest.raises(DuplicateChannel):
            assemble(plan, doubled)

    def test_digital_payloads_quantized_in_place(self):
        plan = four_channel_plan(b=2)
        payloads = [TributaryPayload.from_bits(f"ch{i}", bits) for i, bits in
                    enumerate(("00", "01", "10", "11"))]
        frame = assemble(plan, payloads)
        np.testing.assert_allclose(frame.details[0], [-0.75, -0.25])
        np.testing.assert_allclose(frame.details[1], [0.25])
        np.testing.assert_allclose(frame.approx, [0.75])

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
        row = disassemble_frame(assemble(plan, payloads), plan.layout)
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
        # ch2 sits at band-2 decimation 2 phase 1: indices 1, 3, 5, ...
        np.testing.assert_array_equal(frame.details[1][1::2], np.full(8, 2 / 8.0))
        recovered = channel_rows(plan, disassemble_frame(frame, plan.layout))
        np.testing.assert_array_equal(recovered["ch2"], np.full(8, 2 / 8.0))

    def test_zero_frame_gives_zero_payloads(self):
        plan = four_channel_plan()
        frame = CoefficientFrame((np.zeros(2), np.zeros(1)), np.zeros(1))
        assert not disassemble_frame(frame, plan.layout).any()

    def test_depth_mismatch_rejected(self):
        plan = four_channel_plan()
        frame = CoefficientFrame((np.zeros(2),), np.zeros(2))  # depth 1, tree wants 2
        with pytest.raises(ShapeMismatch):
            disassemble_frame(frame, plan.layout)


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


class TestFrameLayout:
    def test_every_composition_against_slot_walk_oracle(self):
        # all 249 compositions for J = 1..5 at N = 2^(J+1), under haar, db4 and a random lattice wavelet
        rng = np.random.default_rng(4)
        systems = [make_wavelet_system("haar"), make_wavelet_system("db4"),
                   make_wavelet_system(random_scaling_filter(rng, 3), name="lattice6")]
        matrices = {}
        swept = 0
        for j in range(1, 6):
            n = 1 << (j + 1)
            for comp in enumerate_compositions(j):
                rates = [64000 << (j - tier) for tier, count in enumerate(comp, start=1) for _ in range(count)]
                plan = make_plan(n, j, rates)
                layout = plan.layout
                assert np.array_equal(np.sort(layout.index), np.arange(n))
                samples = {ch.id: rng.uniform(-1, 1, hi - lo) for ch, (lo, hi) in zip(plan.channels, layout.bounds)}
                flat = slot_walk_coefficients(layout.tree, samples, n)
                sent = [TributaryPayload.from_samples(cid, v) for cid, v in samples.items()]
                bits = random_payloads(plan, swept)
                for system in systems:
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
        assert swept == 249

    def test_plan_validated_once_across_calls(self, db4, monkeypatch):
        validate = wavemux.rateplan.validate_plan
        calls = []
        monkeypatch.setattr(wavemux.rateplan, "validate_plan", lambda plan: calls.append(plan) or validate(plan))
        plan = make_plan(64, 3, [256000, 128000, 64000, 64000])
        payloads = [TributaryPayload.from_samples(ch.id, np.zeros(c)) for ch, c in zip(plan.channels, (32, 16, 8, 8))]
        for _ in range(25):
            demux(plan, db4, mux(plan, db4, payloads), digital=False)
        assert len(calls) == 1

    def test_index_is_read_only(self):
        with pytest.raises(ValueError):
            four_channel_plan().layout.index[0] = 1


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

    @pytest.mark.parametrize("line", [np.zeros((2, 64)), np.zeros(64 + 3), np.zeros(0)],
                             ids=["2-D", "partial frame", "empty"])
    def test_demux_frames_shape_mismatch(self, db4, line):
        with pytest.raises(ShapeMismatch):
            demux_frames(make_plan(64, 3, [256000] + [64000] * 4), db4, line)
