"""Filter pair construction and validation."""

from __future__ import annotations

import numpy as np
import pytest

from wavemux import (
    FilterPair,
    NotOrthonormal,
    OddLength,
    UnknownWavelet,
    check_orthonormality,
    derive_wavelet_filter,
    format_coefficients_csv,
    make_wavelet_system,
    parse_coefficients_csv,
)
from wavemux.wavelets import decimal_rows, parse_decimals
from oracles import per_row_decimal_text, per_token_decimals, random_scaling_filter

SQRT2 = np.sqrt(2.0)

# Frozen from the root-finding oracle in test_db4_matches_root_finding_oracle
# (polished to full precision by the closed form (sqrt(2)+sqrt(6))/8 family):
# the unique (up to reversal) length-4 solution of the orthonormality system
# with two vanishing moments.
DB4_G = np.array([0.4829629131445341, 0.83651630373780772, 0.22414386804201339, -0.12940952255126034])


def test_haar_scaling_coefficients():
    # unique length-2 solution of sum g = sqrt(2) with unit energy
    pair = make_wavelet_system("haar")
    np.testing.assert_allclose(pair.g, [1 / SQRT2, 1 / SQRT2], atol=1e-15)
    np.testing.assert_allclose(pair.h, [1 / SQRT2, -1 / SQRT2], atol=1e-15)


def test_db4_scaling_coefficients():
    pair = make_wavelet_system("db4")
    np.testing.assert_allclose(pair.g, DB4_G, atol=1e-14)


def test_db4_matches_root_finding_oracle():
    """Solve the defining equations numerically and compare.

    System: DC gain sqrt(2), unit energy, shift-2 orthogonality, and a
    vanishing first moment of the highpass companion. Both the filter and
    its reversal solve it; the minimum-phase one (largest leading tap) is
    the library's convention.
    """
    fsolve = pytest.importorskip("scipy.optimize").fsolve

    def equations(g):
        g0, g1, g2, g3 = g
        h = [g3, -g2, g1, -g0]  # alternating flip
        return [
            g0 + g1 + g2 + g3 - SQRT2,
            g0**2 + g1**2 + g2**2 + g3**2 - 1.0,
            g0 * g2 + g1 * g3,
            sum(n * h[n] for n in range(4)),
        ]

    rng = np.random.default_rng(2024)
    solutions = []
    for _ in range(64):
        root, info, ok, _ = fsolve(equations, rng.uniform(-1, 1, 4), full_output=True, xtol=1e-14)
        if ok == 1 and max(abs(np.array(equations(root)))) < 1e-12:
            if not any(np.allclose(root, s, atol=1e-6) for s in solutions):
                solutions.append(root)
    assert solutions, "root finder found nothing"
    minimum_phase = [s for s in solutions if s[0] > s[3]]
    assert len(minimum_phase) == 1
    np.testing.assert_allclose(minimum_phase[0], DB4_G, atol=1e-9)
    np.testing.assert_allclose(make_wavelet_system("db4").g, minimum_phase[0], atol=1e-9)


def test_unknown_name_rejected():
    with pytest.raises(UnknownWavelet):
        make_wavelet_system("sym5")


def test_raw_coefficients_accepted_when_orthonormal():
    pair = make_wavelet_system(DB4_G, name="given")
    assert pair.name == "given"
    assert check_orthonormality(pair) == []


def test_raw_non_orthonormal_rejected():
    with pytest.raises(NotOrthonormal):
        make_wavelet_system([1.0, 1.0])  # sums to 2, not sqrt(2)


def test_raw_odd_length_rejected():
    with pytest.raises(OddLength):
        make_wavelet_system([0.5, 0.5, 0.5])


class TestDeriveWaveletFilter:
    def test_haar_by_hand(self):
        g = np.array([1 / SQRT2, 1 / SQRT2])
        np.testing.assert_allclose(derive_wavelet_filter(g), [1 / SQRT2, -1 / SQRT2])

    def test_db4_by_hand(self):
        # h[n] = (-1)^n g[3-n] applied by hand: [g3, -g2, g1, -g0]
        expected = np.array([DB4_G[3], -DB4_G[2], DB4_G[1], -DB4_G[0]])
        np.testing.assert_allclose(derive_wavelet_filter(DB4_G), expected, atol=1e-15)
        np.testing.assert_allclose(
            expected, [-0.12940952, -0.22414387, 0.83651630, -0.48296291], atol=1e-8
        )

    def test_zero_sum_for_valid_scaling_filters(self):
        rng = np.random.default_rng(7)
        for taps in (1, 2, 3, 5):
            h = derive_wavelet_filter(random_scaling_filter(rng, taps))
            assert abs(h.sum()) <= 1e-12

    def test_odd_length_rejected(self):
        with pytest.raises(OddLength):
            derive_wavelet_filter([1.0, 2.0, 3.0])


class TestDerivedPair:
    def test_h_is_the_flip_of_g(self):
        rng = np.random.default_rng(17)
        for g in [DB4_G, [0.9, 0.5], rng.standard_normal(6), random_scaling_filter(rng, 5)]:
            pair = FilterPair("x", g)
            assert pair.h.tolist() == derive_wavelet_filter(g).tolist()
            assert pair.g.dtype == pair.h.dtype == float

    @pytest.mark.parametrize("g", [[0.5, 0.5, 0.5], [1.0], [], [[0.5, 0.5]]])
    def test_odd_or_short_g_fails_at_construction(self, g):
        with pytest.raises(OddLength):
            FilterPair("x", g)

    def test_h_cannot_be_given(self):
        with pytest.raises(TypeError):
            FilterPair("x", DB4_G, DB4_G)

    def test_pairs_compare_and_hash_by_identity(self):
        # comparing the taps field by field would ask an array for one truth value
        a, b = make_wavelet_system("haar"), make_wavelet_system("haar")
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert {a: "a", b: "b"}[a] == "a"


class TestCheckOrthonormality:
    def test_builtins_clean_at_tight_tolerance(self):
        for name in ("haar", "db4"):
            assert check_orthonormality(make_wavelet_system(name), tol=1e-12) == []

    def test_seeded_lattice_filters_clean_at_tight_tolerance(self):
        rng = np.random.default_rng(2026)
        for taps in rng.integers(1, 9, 200):
            assert check_orthonormality(FilterPair("lattice", random_scaling_filter(rng, taps)), tol=1e-12) == []

    def test_sum_rule_violation_reported_with_residual(self):
        report = check_orthonormality(FilterPair("bad", np.array([0.9, 0.5])))
        assert [v.constraint for v in report] == ["sum_rule", "double_shift_orthonormality_k=0", "wavelet_zero_sum"]
        expected = [abs(1.4 - SQRT2), abs(0.9**2 + 0.5**2 - 1.0), 0.4]
        for violation, residual in zip(report, expected):
            assert violation.residual == pytest.approx(residual, abs=1e-15)

    def test_random_lattice_filters_clean(self):
        rng = np.random.default_rng(11)
        for taps in (1, 2, 3, 4, 6):
            pair = make_wavelet_system(random_scaling_filter(rng, taps))
            assert check_orthonormality(pair) == []

    def test_cross_orthogonality_all_shifts(self):
        # sum_n g[n] h[n+2k] = 0 for every k and for the flip of any
        # even-length g, orthonormal or not: the terms cancel in pairs,
        # which is why check_orthonormality does not check it
        rng = np.random.default_rng(13)
        for g in [random_scaling_filter(rng, taps) for taps in (2, 4, 5)] + [rng.standard_normal(8)]:
            h = derive_wavelet_filter(g)
            L = len(g)
            for k in range(-(L // 2) + 1, L // 2):
                dot = sum(
                    g[n] * h[n + 2 * k] for n in range(L) if 0 <= n + 2 * k < L
                )
                assert abs(dot) <= 1e-12


def test_coefficient_csv_round_trip_is_exact():
    rng = np.random.default_rng(5)
    g = random_scaling_filter(rng, 4)
    echoed = parse_coefficients_csv(format_coefficients_csv(g))
    assert echoed.tolist() == g.tolist()  # bit-exact, 17 significant digits
    assert format_coefficients_csv(g) == ",".join(f"{v:.17g}" for v in g)
    # a coefficient line has the one decimal syntax: commas and/or whitespace separate values
    for sep in (" ", "\n", " , ", ",\t"):
        assert parse_coefficients_csv(sep.join(f"{v:.17g}" for v in g) + "\n").tolist() == g.tolist()
    with pytest.raises(ValueError):
        parse_coefficients_csv("abc,0.7")
    with pytest.raises(OddLength):
        parse_coefficients_csv(" , \n")


SPECIAL_DOUBLES = [-0.0, 5e-324, 2.2250738585072014e-309, float(2**53 + 1), 1.7976931348623157e308,
                   np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("cols", [1, 3, 12])
def test_decimal_text_matches_per_value_oracles(cols):
    # decimal_rows must write the per-row f-string bytes and parse_decimals
    # must read back float()'s bits, for any double, across block boundaries
    rng = np.random.default_rng(70 + cols)
    for rows in (1, 5, 1023, 1024, 1025, 2500):
        values = rng.integers(0, 1 << 64, rows * cols, dtype=np.uint64).view(np.float64)
        values[rng.integers(0, values.size, 2)] = rng.uniform(-1.0, 1.0, 2)
        specials = rng.choice(values.size, min(values.size, len(SPECIAL_DOUBLES)), replace=False)
        values[specials] = SPECIAL_DOUBLES[: specials.size]
        table = values.reshape(rows, cols)
        text = "".join(decimal_rows(table.T))
        assert text == per_row_decimal_text(table)
        parsed, expected = parse_decimals(text), per_token_decimals(text)
        assert parsed.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        # the canonical NaN is what %.17g's "nan" reads back as; every other value round-trips exactly
        finite_or_inf = ~np.isnan(values)
        assert parsed[finite_or_inf].view(np.uint64).tolist() == values[finite_or_inf].view(np.uint64).tolist()


@pytest.mark.parametrize("token", ["1_0", "1e400", "nan", "-inf", "Infinity", "+.5", "١", "1.5e", "0x10",
                                   "1d0", "abc", "1__0", "_1", "."])
def test_parse_decimals_accepts_what_float_accepts(token):
    text = f"0.5, {token}\n-2"
    try:
        expected = per_token_decimals(text)
    except ValueError:
        with pytest.raises(ValueError, match="could not convert string to float"):
            parse_decimals(text)
    else:
        assert parse_decimals(text).view(np.uint64).tolist() == expected.view(np.uint64).tolist()


class TestNonFiniteCoefficients:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("g", [[np.nan, np.nan], [np.inf, -np.inf], [np.nan] * 4, "db4 with one NaN"])
    def test_rejected_without_warnings(self, g):
        if isinstance(g, str):
            g = DB4_G.copy()
            g[2] = np.nan
        report = check_orthonormality(FilterPair("custom", np.asarray(g)))
        assert [v.constraint for v in report] == ["finite_coefficients"]
        with pytest.raises(NotOrthonormal, match="finite_coefficients"):
            make_wavelet_system(g)
