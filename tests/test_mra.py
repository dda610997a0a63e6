"""Pyramid transform: hand-worked examples and structural invariants."""

from __future__ import annotations

import numpy as np
import pytest

from wavemux import (
    BadDepth,
    DataError,
    FilterPair,
    NotOrthonormal,
    OddLength,
    analyze,
    make_wavelet_system,
    synthesize,
)
import wavemux.mra
from wavemux import wavelets
from wavemux.mra import _analyze, _synthesize
from wavemux.wavelets import _lattice_filters
from oracles import (
    direct_analyze_level,
    direct_synthesize_level,
    lattice_scaling_filter,
    naive_analyze_level,
    naive_synthesize,
    naive_synthesize_level,
    random_scaling_filter,
)
from test_acceptance import _CountingNumpy

SQRT2 = np.sqrt(2.0)


def split(flat, depth):
    """Views of flat coefficients (..., N): (details finest first, approximation)."""
    n = flat.shape[-1]
    details = [flat[..., n - 2 * (n >> level) : n - (n >> level)] for level in range(1, depth + 1)]
    return details, flat[..., n - (n >> depth) :]


def level_pair(x, pair):
    """(approximation, detail) of one analysis level of ``x``."""
    flat = analyze(x, 1, pair)
    half = flat.shape[-1] // 2
    return flat[..., half:], flat[..., :half]


def one_level_synthesis(approx, detail, pair):
    """One synthesis level: the flat coefficients are the detail, then the approximation."""
    return synthesize(np.concatenate([detail, approx], axis=-1), 1, pair)


@pytest.fixture(scope="module")
def haar():
    return make_wavelet_system("haar")


@pytest.fixture(scope="module")
def db4():
    return make_wavelet_system("db4")


class TestAnalyzeLevel:
    def test_constant_signal_has_zero_detail(self, haar):
        approx, detail = level_pair([1.0, 1.0], haar)
        np.testing.assert_allclose(approx, [SQRT2], atol=1e-15)
        np.testing.assert_allclose(detail, [0.0], atol=1e-15)

    def test_unit_impulse_by_hand(self, haar):
        # approx[k] = sum_n g[n] x[(2k+n) mod 4] worked by hand
        approx, detail = level_pair([1.0, 0.0, 0.0, 0.0], haar)
        np.testing.assert_allclose(approx, [1 / SQRT2, 0.0], atol=1e-15)
        np.testing.assert_allclose(detail, [1 / SQRT2, 0.0], atol=1e-15)

    def test_short_ramp_by_hand(self, haar):
        approx, detail = level_pair([3.0, 1.0, 2.0, 2.0], haar)
        np.testing.assert_allclose(approx, [2 * SQRT2, 2 * SQRT2], atol=1e-14)
        np.testing.assert_allclose(detail, [SQRT2, 0.0], atol=1e-14)

    def test_odd_length_rejected(self, haar):
        with pytest.raises(BadDepth, match="signal length 3 is not a positive multiple of 2"):
            analyze([1.0, 2.0, 3.0], 1, haar)
        with pytest.raises(BadDepth, match="signal length 3 is not a positive multiple of 2"):
            synthesize([1.0, 2.0, 3.0], 1, haar)

    def test_matches_naive_loops_even_when_filter_longer_than_signal(self, db4):
        rng = np.random.default_rng(17)
        for m in (2, 4, 6, 16):
            x = rng.standard_normal(m)
            approx, detail = level_pair(x, db4)
            a, d = naive_analyze_level(x, db4.g, db4.h)
            np.testing.assert_allclose(approx, a, atol=1e-13)
            np.testing.assert_allclose(detail, d, atol=1e-13)


def run_kernels(pair, x, a, d):
    """The lattice kernel pair along the last axis: analysis of ``x`` (..., M) and
    synthesis of ``a``, ``d`` (..., M/2), in fresh scratch of the documented size."""
    lattice = pair._lattice
    lead, half, e = x.shape[:-1], x.shape[-1] // 2, len(pair._lattice.stages)
    channels = np.full(lead + (3, half + e), np.nan)
    approx, detail = np.empty((2,) + lead + (half,))
    _analyze(x, lattice, approx, detail, channels)
    channels[..., 1, e : e + half] = a
    y = np.empty(x.shape)
    _synthesize(d, lattice, channels, 1, y)
    return approx, detail, y


class TestKernelMatchesOracle:
    """The lattice kernel pair against the naive loops and the direct form in oracles.py."""

    @staticmethod
    def _check(pair, m, rng):
        # a (frames, M) block works along the last axis, row by row
        xs = rng.standard_normal((3, m))
        a2, d2 = rng.standard_normal((2, 3, m // 2))
        approx, detail, ys = run_kernels(pair, xs, a2, d2)
        assert ys.shape == (3, m)
        for k in range(3):
            a, d = naive_analyze_level(xs[k], pair.g, pair.h)
            np.testing.assert_allclose(approx[k], a, rtol=0, atol=1e-12)
            np.testing.assert_allclose(detail[k], d, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ys[k], naive_synthesize_level(a2[k], d2[k], pair.g, pair.h), rtol=0, atol=1e-12)
        a, d = direct_analyze_level(xs, pair.g, pair.h)
        np.testing.assert_allclose(approx, a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(detail, d, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ys, direct_synthesize_level(a2, d2, pair.g, pair.h), rtol=0, atol=1e-12)
        # one frame (M,) gives the block's first row, bit for bit
        for got, want in zip(run_kernels(pair, xs[0], a2[0], d2[0]), (approx[0], detail[0], ys[0])):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [8, 16, 18, 64, 16384, 32774])
    def test_db4(self, db4, m):
        self._check(db4, m, np.random.default_rng(18))

    @pytest.mark.parametrize("m", [2, 4, 64])
    def test_haar(self, haar, m):
        self._check(haar, m, np.random.default_rng(19))

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_lattice_filter_longer_than_signal(self, m):
        # 10 taps, four stages past the first: the extension wraps more than once
        rng = np.random.default_rng(60 + m)
        pair = make_wavelet_system(random_scaling_filter(rng, 5))
        assert pair.g.size == 10
        self._check(pair, m, rng)


class TestLattice:
    """Compiling a pair into its stages, and running every kind of filter through them."""

    def test_builtins_compile_to_one_and_two_stages(self, haar, db4):
        assert haar._lattice.stages == ()
        assert len(db4._lattice.stages) == 1
        for pair in (haar, db4):
            g, h = _lattice_filters(pair._lattice)
            np.testing.assert_allclose(g, pair.g, rtol=0, atol=1e-15)
            np.testing.assert_allclose(h, pair.h, rtol=0, atol=1e-15)

    def test_haar_first_stage_is_the_orthogonal_butterfly(self, haar):
        (a, b), (c, d) = haar._lattice.first
        assert a == b == c == -d
        np.testing.assert_allclose(a, np.sqrt(0.5), rtol=0, atol=1e-16)

    def test_random_filters_match_naive_loops(self):
        # 200 seeded filters with up to 7 stages; every fourth takes its angles
        # within 1e-3 of +-pi/2, where the pivot swaps roles to keep |t| <= 1
        rng = np.random.default_rng(2024)
        worst = 0.0
        for k in range(200):
            n_angles = int(rng.integers(1, 8))
            if k % 4 == 0:
                angles = rng.choice([-np.pi / 2, np.pi / 2], n_angles) + rng.uniform(-1e-3, 1e-3, n_angles)
                angles[-1] = np.pi / 4 - angles[:-1].sum()
                pair = make_wavelet_system(lattice_scaling_filter(angles))
            else:
                pair = make_wavelet_system(random_scaling_filter(rng, n_angles))
            assert len(pair._lattice.stages) == n_angles - 1
            assert all(abs(t) <= 1.0 for t, _ in pair._lattice.stages)
            m = 2 * int(rng.integers(1, 12))
            x = rng.standard_normal(m)
            a2, d2 = rng.standard_normal((2, m // 2))
            approx, detail, y = run_kernels(pair, x, a2, d2)
            a, d = naive_analyze_level(x, pair.g, pair.h)
            worst = max(worst, np.max(np.abs(approx - a)), np.max(np.abs(detail - d)),
                        np.max(np.abs(y - naive_synthesize_level(a2, d2, pair.g, pair.h))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_cascade_writes_over_its_own_input(self, name):
        # from level 2 on, each level's outputs overwrite the approximation it reads
        pair = make_wavelet_system(name)
        rng = np.random.default_rng(77)
        for n, depth in ((8, 3), (64, 6), (1024, 5)):
            x = rng.standard_normal(n)
            flat = analyze(x, depth, pair)
            details, approx = split(flat, depth)
            cur = x
            for level in range(depth):
                cur, d = naive_analyze_level(cur, pair.g, pair.h)
                np.testing.assert_allclose(details[level], d, rtol=0, atol=1e-12)
            np.testing.assert_allclose(approx, cur, rtol=0, atol=1e-12)
            np.testing.assert_allclose(synthesize(flat, depth, pair), naive_synthesize(details, approx, pair.g, pair.h),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("g", [[0, 0, 1, 1], [1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]])
    def test_haar_shifted_or_padded_with_zeros(self, g):
        # vanishing end taps leave a zero top or bottom coefficient to peel
        pair = make_wavelet_system(np.array(g) / SQRT2)
        x = np.random.default_rng(81).standard_normal(8)
        approx, detail = naive_analyze_level(x, pair.g, pair.h)
        flat = analyze(x, 1, pair)
        np.testing.assert_allclose(flat[4:], approx, rtol=0, atol=1e-15)
        np.testing.assert_allclose(flat[:4], detail, rtol=0, atol=1e-15)
        np.testing.assert_allclose(synthesize(flat, 1, pair), x, rtol=0, atol=1e-15)

    def test_unvalidated_non_paraunitary_pair_is_refused(self):
        broken = FilterPair("broken", np.array([0.9, 0.5, 0.1, 0.2]))
        with pytest.raises(NotOrthonormal, match="not paraunitary"):
            analyze(np.zeros(8), 1, broken)
        with pytest.raises(NotOrthonormal, match="not paraunitary"):
            synthesize(np.zeros(8), 1, FilterPair("haarish", [0.9, 0.5]))
        for g in ([0.0, 0.0], [0.0, 0.0, 0.0, 0.0]):
            with pytest.raises(NotOrthonormal, match="not paraunitary"):
                FilterPair("zero", g)._lattice
        # an odd g makes no pair at all, so the lattice only refuses taps that are not finite
        with pytest.raises(OddLength):
            FilterPair("odd", [1.0, 0.0, 0.0])
        for g in ([np.nan, 1.0], [1.0, 0.0, np.inf, 0.0]):
            with pytest.raises(NotOrthonormal, match="no lattice"):
                FilterPair("non-finite", g)._lattice

    def test_validation_compiles_the_lattice(self, monkeypatch):
        # a pair the lattice cannot run is refused where it is validated
        monkeypatch.setattr(wavelets, "_LATTICE_TOLERANCE", 0.0)
        with pytest.raises(NotOrthonormal, match="not paraunitary"):
            make_wavelet_system(random_scaling_filter(np.random.default_rng(5), 4))


class TestSynthesizeLevel:
    def test_constant_inverse(self, haar):
        np.testing.assert_allclose(one_level_synthesis([SQRT2], [0.0], haar), [1.0, 1.0], atol=1e-15)

    def test_short_ramp_inverse(self, haar):
        got = one_level_synthesis([2 * SQRT2, 2 * SQRT2], [SQRT2, 0.0], haar)
        np.testing.assert_allclose(got, [3.0, 1.0, 2.0, 2.0], atol=1e-14)

    def test_zeros_stay_zeros(self, db4):
        np.testing.assert_array_equal(synthesize(np.zeros(16), 1, db4), np.zeros(16))

    def test_length_mismatch_rejected(self, haar):
        # three coefficients cannot split into an approximation and a detail of one length
        with pytest.raises(BadDepth, match="signal length 3 is not a positive multiple of 2"):
            synthesize(np.zeros(3), 1, haar)
        with pytest.raises(BadDepth, match="signal length 0 "):
            synthesize(np.zeros((2, 0)), 1, haar)

    def test_matches_naive_loops(self, db4):
        rng = np.random.default_rng(19)
        for half in (1, 2, 3, 8):
            a = rng.standard_normal(half)
            d = rng.standard_normal(half)
            got = one_level_synthesis(a, d, db4)
            np.testing.assert_allclose(got, naive_synthesize_level(a, d, db4.g, db4.h), atol=1e-13)


class TestCascade:
    def test_constant_signal_depth_two(self, haar):
        # flat layout: level-1 detail (2), level-2 detail (1), approximation (1)
        np.testing.assert_allclose(analyze([1.0, 1.0, 1.0, 1.0], 2, haar), [0.0, 0.0, 0.0, 2.0], atol=1e-15)

    def test_half_constant_collects_in_approximation(self, haar):
        flat = analyze([0.5, 0.5, 0.5, 0.5], 2, haar)
        np.testing.assert_allclose(flat[-1:], [1.0], atol=1e-15)
        assert np.dot(flat, flat) == pytest.approx(1.0)

    def test_depth_one_equals_single_level(self, db4):
        x = np.random.default_rng(23).standard_normal(32)
        # depth 1 is the first level of a deeper cascade, bit for bit
        flat, deep = analyze(x, 1, db4), analyze(x, 3, db4)
        assert flat[:16].tobytes() == deep[:16].tobytes()
        assert analyze(flat[16:], 2, db4).tobytes() == deep[16:].tobytes()

    def test_deep_approximation_unit_synthesizes_to_constant(self, haar):
        np.testing.assert_allclose(synthesize([0.0, 0.0, 0.0, 1.0], 2, haar), [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_deep_detail_unit_synthesizes_to_square_wave(self, haar):
        np.testing.assert_allclose(synthesize([0.0, 0.0, 1.0, 0.0], 2, haar), [0.5, 0.5, -0.5, -0.5], atol=1e-15)

    @staticmethod
    def _refusals(transform, pair):
        with pytest.raises(BadDepth, match="signal length 12 is not a positive multiple of 2\\^3"):
            transform(np.zeros(12), 3, pair)
        with pytest.raises(BadDepth, match="signal length 12 is not a positive multiple of 2\\^3"):
            transform(np.zeros((5, 12)), 3, pair)  # the last axis of a block
        with pytest.raises(BadDepth, match="signal length 16 is not a positive multiple of 2\\^5"):
            transform(np.zeros(16), 5, pair)  # deeper than the frame
        with pytest.raises(BadDepth, match="signal length 16 is not a positive multiple"):
            transform(np.zeros(16), 1 << 40, pair)  # refused without forming 2^depth
        for depth in (0, -1):
            with pytest.raises(BadDepth, match=f"depth must be >= 1, got {depth}"):
                transform(np.zeros(16), depth, pair)
        with pytest.raises(BadDepth, match="signal length 0 "):
            transform(np.float64(1.0), 1, pair)  # a scalar has no last axis to transform

    def test_bad_depth_rejected(self, haar):
        self._refusals(analyze, haar)
        self._refusals(synthesize, haar)

    @pytest.mark.parametrize("kind", ["complex", "text"])
    def test_complex_and_text_input_rejected(self, haar, kind):
        # a cast to float would drop the imaginary part with a ComplexWarning,
        # which the test configuration makes an error, or parse the text
        x = np.zeros(8) + 1j if kind == "complex" else np.full(8, "0.5")
        with pytest.raises(DataError, match="signal: samples must be real numbers"):
            analyze(x, 1, haar)
        with pytest.raises(DataError, match="coefficients: samples must be real numbers"):
            synthesize(x, 1, haar)

    def test_malformed_frames_rejected(self, haar):
        # coefficients that do not tile a dyadic frame of the given depth
        for n, depth in ((6, 2), (4, 3), (24, 4)):
            with pytest.raises(BadDepth):
                synthesize(np.zeros(n), depth, haar)

    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_block_matches_row_by_row(self, name):
        pair = make_wavelet_system(name)
        block = np.random.default_rng(29).standard_normal((5, 256))
        flat = analyze(block, 4, pair)
        lines = synthesize(flat, 4, pair)
        assert flat.shape == lines.shape == (5, 256)
        for k in range(5):
            assert flat[k].tobytes() == analyze(block[k], 4, pair).tobytes()
            assert lines[k].tobytes() == synthesize(flat[k], 4, pair).tobytes()
        # a (frames, channels, N) stack works along the last axis as well
        stack = block.reshape(5, 1, 256)
        assert analyze(stack, 4, pair).tobytes() == flat.tobytes()

    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_in_place(self, name):
        pair = make_wavelet_system(name)
        x = np.random.default_rng(31).standard_normal((3, 64))
        flat = analyze(x, 3, pair)
        want = synthesize(flat, 3, pair)
        buf = flat.copy()
        assert synthesize(buf, 3, pair, out=buf) is buf
        assert buf.tobytes() == want.tobytes()
        buf = x.copy()
        assert analyze(buf, 3, pair, out=buf) is buf
        assert buf.tobytes() == flat.tobytes()


class TestInvariants:
    """Perfect reconstruction, energy conservation, linearity."""

    @pytest.mark.parametrize("taps", [1, 2, 3, 5])
    def test_perfect_reconstruction_random_filters(self, taps):
        rng = np.random.default_rng(100 + taps)
        pair = make_wavelet_system(random_scaling_filter(rng, taps))
        for n, depth in ((8, 1), (64, 3), (256, 5), (4096, 5)):
            x = rng.standard_normal(n)
            err = np.max(np.abs(synthesize(analyze(x, depth, pair), depth, pair) - x))
            assert err <= 1e-10

    def test_round_trip_builtin_pairs(self, haar, db4):
        rng = np.random.default_rng(31)
        for pair in (haar, db4):
            for n in (2, 4, 1024):
                x = rng.standard_normal(n)
                np.testing.assert_allclose(synthesize(analyze(x, 1, pair), 1, pair), x, atol=1e-12)

    def test_energy_conservation(self, db4):
        rng = np.random.default_rng(37)
        for _ in range(20):
            x = rng.standard_normal(512)
            flat = analyze(x, 4, db4)
            rel = abs(np.dot(flat, flat) - np.dot(x, x)) / np.dot(x, x)
            assert rel <= 1e-9

    def test_linearity(self, db4):
        rng = np.random.default_rng(41)
        x = rng.standard_normal(128)
        y = rng.standard_normal(128)
        a, b = 1.7, -0.3
        fx = analyze(x, 3, db4)
        fy = analyze(y, 3, db4)
        fxy = analyze(a * x + b * y, 3, db4)
        np.testing.assert_allclose(fxy, a * fx + b * fy, atol=1e-10)

    def test_frame_bookkeeping(self, haar):
        # N samples give exactly N coefficients, as float64, for ints as well
        flat = analyze(np.arange(64), 3, haar)
        assert flat.shape == (64,) and flat.dtype == np.float64
        assert synthesize(flat, 3, haar).shape == (64,)
        details, approx = split(flat, 3)
        assert [d.size for d in details] + [approx.size] == [32, 16, 8, 8]

    def test_non_contiguous_input_accepted(self, db4):
        base = np.random.default_rng(51).standard_normal(256)
        view = base[::2]  # strided view, not C-contiguous
        flat = analyze(view, 2, db4)
        assert flat.tobytes() == analyze(np.ascontiguousarray(view), 2, db4).tobytes()
        strided = np.empty(2 * flat.size)
        strided[::2] = flat
        np.testing.assert_allclose(synthesize(strided[::2], 2, db4), view, atol=1e-12)


class TestRowBookkeeping:
    """The kernels move their channels between the rows of one scratch array;
    every layout of input and output gives the bytes of the contiguous single frame."""

    # haar, db4 and seeded 6- and 8-tap lattices: between them they run both home rows of synthesis
    PAIRS = [make_wavelet_system("haar"), make_wavelet_system("db4"),
             make_wavelet_system(random_scaling_filter(np.random.default_rng(1), 3)),
             make_wavelet_system(random_scaling_filter(np.random.default_rng(1), 4))]
    # (N, depth): at N = 16, depth 4 the deepest level has 2 samples, fewer than any filter here but haar
    CASES = [(16, 4), (256, 5), (2, 1)]

    def test_the_pairs_run_both_stage_kinds(self):
        assert [len(p) for p in self.PAIRS] == [2, 4, 6, 8]
        for pair in self.PAIRS[2:]:
            assert {delayed for _, delayed in pair._lattice.stages} == {0, 1}
        # the stage that synthesis undoes last advances either channel among these pairs
        assert {p._lattice.stages[0][1] for p in self.PAIRS if p._lattice.stages} == {0, 1}

    @staticmethod
    def _case(pair, n, depth):
        x = np.random.default_rng(n + len(pair)).standard_normal((3, n))
        return x, analyze(x, depth, pair)

    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{len(p)}taps")
    @pytest.mark.parametrize("n, depth", CASES)
    def test_block_rows_equal_single_frames(self, pair, n, depth):
        x, flat = self._case(pair, n, depth)
        lines = synthesize(flat, depth, pair)
        for k in range(len(x)):
            assert flat[k].tobytes() == analyze(x[k], depth, pair).tobytes()
            assert lines[k].tobytes() == synthesize(flat[k], depth, pair).tobytes()
        np.testing.assert_allclose(lines, x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{len(p)}taps")
    @pytest.mark.parametrize("n, depth", CASES)
    def test_non_contiguous_out(self, pair, n, depth):
        x, flat = self._case(pair, n, depth)
        lines = synthesize(flat, depth, pair)
        for out in (np.zeros((3, 2 * n))[:, ::2], np.zeros((3, n), order="F")):
            assert analyze(x, depth, pair, out=out) is out
            assert out.tobytes() == flat.tobytes()
            assert synthesize(flat, depth, pair, out=out) is out
            assert out.tobytes() == lines.tobytes()
        # one frame into every other sample of a longer array
        out = np.zeros(2 * n)[1::2]
        analyze(x[0], depth, pair, out=out)
        assert out.tobytes() == flat[0].tobytes()
        synthesize(flat[0], depth, pair, out=out)
        assert out.tobytes() == lines[0].tobytes()

    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{len(p)}taps")
    @pytest.mark.parametrize("n, depth", CASES)
    def test_read_only_input(self, pair, n, depth):
        # as the CLI reads a line: np.frombuffer over bytes
        x, flat = self._case(pair, n, depth)
        line = np.frombuffer(x[0].tobytes())
        coeffs = np.frombuffer(flat[0].tobytes())
        assert not line.flags.writeable and not coeffs.flags.writeable
        assert analyze(line, depth, pair).tobytes() == flat[0].tobytes()
        assert synthesize(coeffs, depth, pair).tobytes() == synthesize(flat[0], depth, pair).tobytes()

    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{len(p)}taps")
    @pytest.mark.parametrize("n, depth", CASES)
    def test_out_is_the_input(self, pair, n, depth):
        x, flat = self._case(pair, n, depth)
        lines = synthesize(flat, depth, pair)
        for signal, coeffs, line in ((x, flat, lines), (x[1], flat[1], lines[1])):
            buf = signal.copy()
            assert analyze(buf, depth, pair, out=buf) is buf
            assert buf.tobytes() == coeffs.tobytes()
            assert synthesize(buf, depth, pair, out=buf) is buf
            assert buf.tobytes() == line.tobytes()

    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{len(p)}taps")
    def test_multiplies_per_level(self, pair, monkeypatch):
        # both stage kinds cost what test_c7 counts for haar and db4, (L/2 + 1) M per level each way,
        # plus (K - 1)(K - 2) for the samples of the periodic extension that the first K - 2 stages run past M/2
        counter = _CountingNumpy()
        monkeypatch.setattr(wavemux.mra, "np", counter)
        frames, n, depth, k = 2, 256, 5, len(pair) // 2
        x = np.random.default_rng(3).standard_normal((frames, n))
        per_frame = sum((k + 1) * (n >> level) + (k - 1) * (k - 2) for level in range(depth))
        for transform in (analyze, synthesize):
            counter.multiplies = 0
            transform(x, depth, pair)
            assert counter.multiplies == frames * per_frame
