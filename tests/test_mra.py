"""Pyramid transform: hand-worked examples and structural invariants."""

from __future__ import annotations

import numpy as np
import pytest

from wavemux import (
    BadDepth,
    CoefficientFrame,
    LengthMismatch,
    LevelPair,
    MalformedFrame,
    OddLength,
    analyze,
    analyze_level,
    make_wavelet_system,
    synthesize,
    synthesize_level,
)
from oracles import naive_analyze_level, naive_synthesize_level, random_scaling_filter

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def haar():
    return make_wavelet_system("haar")


@pytest.fixture(scope="module")
def db4():
    return make_wavelet_system("db4")


class TestAnalyzeLevel:
    def test_constant_signal_has_zero_detail(self, haar):
        lp = analyze_level([1.0, 1.0], haar)
        np.testing.assert_allclose(lp.approx, [SQRT2], atol=1e-15)
        np.testing.assert_allclose(lp.detail, [0.0], atol=1e-15)

    def test_unit_impulse_by_hand(self, haar):
        # approx[k] = sum_n g[n] x[(2k+n) mod 4] worked by hand
        lp = analyze_level([1.0, 0.0, 0.0, 0.0], haar)
        np.testing.assert_allclose(lp.approx, [1 / SQRT2, 0.0], atol=1e-15)
        np.testing.assert_allclose(lp.detail, [1 / SQRT2, 0.0], atol=1e-15)

    def test_short_ramp_by_hand(self, haar):
        lp = analyze_level([3.0, 1.0, 2.0, 2.0], haar)
        np.testing.assert_allclose(lp.approx, [2 * SQRT2, 2 * SQRT2], atol=1e-14)
        np.testing.assert_allclose(lp.detail, [SQRT2, 0.0], atol=1e-14)

    def test_odd_length_rejected(self, haar):
        with pytest.raises(OddLength):
            analyze_level([1.0, 2.0, 3.0], haar)

    def test_matches_naive_loops_even_when_filter_longer_than_signal(self, db4):
        rng = np.random.default_rng(17)
        for m in (2, 4, 6, 16):
            x = rng.standard_normal(m)
            lp = analyze_level(x, db4)
            a, d = naive_analyze_level(x, db4.g, db4.h)
            np.testing.assert_allclose(lp.approx, a, atol=1e-13)
            np.testing.assert_allclose(lp.detail, d, atol=1e-13)


class TestKernelMatchesOracle:
    """The periodic-extension pair against the direct loops in oracles.py."""

    @staticmethod
    def _check(pair, m, rng):
        x = rng.standard_normal(m)
        lp = analyze_level(x, pair)
        a, d = naive_analyze_level(x, pair.g, pair.h)
        np.testing.assert_allclose(lp.approx, a, atol=1e-12)
        np.testing.assert_allclose(lp.detail, d, atol=1e-12)
        a, d = rng.standard_normal((2, m // 2))
        got = synthesize_level(LevelPair(a, d), pair)
        np.testing.assert_allclose(got, naive_synthesize_level(a, d, pair.g, pair.h), atol=1e-12)

    @pytest.mark.parametrize("m", [8, 16, 18, 64, 16384, 32774])
    def test_db4(self, db4, m):
        self._check(db4, m, np.random.default_rng(18))

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_lattice_filter_longer_than_signal(self, m):
        rng = np.random.default_rng(60 + m)
        pair = make_wavelet_system(random_scaling_filter(rng, 5))
        assert pair.g.size == 10
        self._check(pair, m, rng)


class TestSynthesizeLevel:
    def test_constant_inverse(self, haar):
        np.testing.assert_allclose(
            synthesize_level(LevelPair([SQRT2], [0.0]), haar), [1.0, 1.0], atol=1e-15
        )

    def test_short_ramp_inverse(self, haar):
        lp = LevelPair([2 * SQRT2, 2 * SQRT2], [SQRT2, 0.0])
        np.testing.assert_allclose(synthesize_level(lp, haar), [3.0, 1.0, 2.0, 2.0], atol=1e-14)

    def test_zeros_stay_zeros(self, db4):
        lp = LevelPair(np.zeros(8), np.zeros(8))
        np.testing.assert_array_equal(synthesize_level(lp, db4), np.zeros(16))

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            LevelPair([1.0, 2.0], [1.0])

    def test_matches_naive_loops(self, db4):
        rng = np.random.default_rng(19)
        for half in (1, 2, 3, 8):
            a = rng.standard_normal(half)
            d = rng.standard_normal(half)
            got = synthesize_level(LevelPair(a, d), db4)
            np.testing.assert_allclose(got, naive_synthesize_level(a, d, db4.g, db4.h), atol=1e-13)


class TestCascade:
    def test_constant_signal_depth_two(self, haar):
        frame = analyze([1.0, 1.0, 1.0, 1.0], 2, haar)
        np.testing.assert_allclose(frame.details[0], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(frame.details[1], [0.0], atol=1e-15)
        np.testing.assert_allclose(frame.approx, [2.0], atol=1e-15)

    def test_half_constant_collects_in_approximation(self, haar):
        frame = analyze([0.5, 0.5, 0.5, 0.5], 2, haar)
        np.testing.assert_allclose(frame.approx, [1.0], atol=1e-15)
        assert frame.energy() == pytest.approx(1.0)

    def test_depth_one_equals_single_level(self, db4):
        x = np.random.default_rng(23).standard_normal(32)
        frame = analyze(x, 1, db4)
        lp = analyze_level(x, db4)
        np.testing.assert_array_equal(frame.details[0], lp.detail)
        np.testing.assert_array_equal(frame.approx, lp.approx)

    def test_deep_approximation_unit_synthesizes_to_constant(self, haar):
        frame = CoefficientFrame((np.zeros(2), np.zeros(1)), np.array([1.0]))
        np.testing.assert_allclose(synthesize(frame, haar), [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_deep_detail_unit_synthesizes_to_square_wave(self, haar):
        frame = CoefficientFrame((np.zeros(2), np.array([1.0])), np.array([0.0]))
        np.testing.assert_allclose(synthesize(frame, haar), [0.5, 0.5, -0.5, -0.5], atol=1e-15)

    def test_bad_depth_rejected(self, haar):
        with pytest.raises(BadDepth):
            analyze(np.zeros(12), 3, haar)  # 12 not divisible by 8
        with pytest.raises(BadDepth):
            analyze(np.zeros(16), 0, haar)

    def test_malformed_frames_rejected(self):
        with pytest.raises(MalformedFrame):
            CoefficientFrame((np.zeros(4), np.zeros(3)), np.zeros(3))
        with pytest.raises(MalformedFrame):
            CoefficientFrame((np.zeros(4), np.zeros(2)), np.zeros(4))
        with pytest.raises(MalformedFrame):
            CoefficientFrame((), np.zeros(4))


class TestInvariants:
    """Perfect reconstruction, energy conservation, linearity."""

    @pytest.mark.parametrize("taps", [1, 2, 3, 5])
    def test_perfect_reconstruction_random_filters(self, taps):
        rng = np.random.default_rng(100 + taps)
        pair = make_wavelet_system(random_scaling_filter(rng, taps))
        for n, depth in ((8, 1), (64, 3), (256, 5), (4096, 5)):
            x = rng.standard_normal(n)
            err = np.max(np.abs(synthesize(analyze(x, depth, pair), pair) - x))
            assert err <= 1e-10

    def test_round_trip_builtin_pairs(self, haar, db4):
        rng = np.random.default_rng(31)
        for pair in (haar, db4):
            for n in (2, 4, 1024):
                x = rng.standard_normal(n)
                lp = analyze_level(x, pair)
                np.testing.assert_allclose(synthesize_level(lp, pair), x, atol=1e-12)

    def test_energy_conservation(self, db4):
        rng = np.random.default_rng(37)
        for _ in range(20):
            x = rng.standard_normal(512)
            frame = analyze(x, 4, db4)
            rel = abs(frame.energy() - np.dot(x, x)) / np.dot(x, x)
            assert rel <= 1e-9

    def test_linearity(self, db4):
        rng = np.random.default_rng(41)
        x = rng.standard_normal(128)
        y = rng.standard_normal(128)
        a, b = 1.7, -0.3
        fx = analyze(x, 3, db4)
        fy = analyze(y, 3, db4)
        fxy = analyze(a * x + b * y, 3, db4)
        for dxy, dx, dy in zip(fxy.details, fx.details, fy.details):
            np.testing.assert_allclose(dxy, a * dx + b * dy, atol=1e-10)
        np.testing.assert_allclose(fxy.approx, a * fx.approx + b * fy.approx, atol=1e-10)

    def test_frame_bookkeeping(self, haar):
        frame = analyze(np.arange(64.0), 3, haar)
        assert frame.depth == 3
        assert frame.length == 64
        assert frame.coefficient_count() == 64

    def test_non_contiguous_input_accepted(self, db4):
        base = np.random.default_rng(51).standard_normal(256)
        view = base[::2]  # strided view, not C-contiguous
        frame = analyze(view, 2, db4)
        np.testing.assert_allclose(synthesize(frame, db4), np.ascontiguousarray(view), atol=1e-12)
