"""TDM reference construction and spectral comparison."""

from __future__ import annotations

import io

import numpy as np
import pytest

from wavemux import (
    Channel,
    DataError,
    PayloadLengthMismatch,
    RatePlan,
    SpectrumReport,
    TributaryPayload,
    compare_spectra,
    dft_magnitude,
    make_wavelet_system,
    random_payloads,
    tdm_reference,
    write_report_csv,
)
from oracles import naive_dft_magnitude


def make_plan(n, j, rates, r=64000, b=8):
    return RatePlan(n, j, r, b, tuple(Channel(f"ch{i}", rate) for i, rate in enumerate(rates)))


def equal_rate_plan(n, j, b=8):
    return make_plan(n, j, [64000] * (1 << j), b=b)


class TestTdmReference:
    def test_concatenation_order(self):
        plan = equal_rate_plan(4, 2)
        payloads = [
            TributaryPayload.from_samples(f"ch{i}", [v])
            for i, v in enumerate((0.1, 0.2, 0.3, 0.4))
        ]
        np.testing.assert_allclose(tdm_reference(plan, payloads), [0.1, 0.2, 0.3, 0.4])

    def test_block_lengths_follow_rates(self):
        plan = make_plan(64, 3, [256000, 64000, 64000, 64000, 64000])
        payloads = [TributaryPayload.from_samples("ch0", np.full(32, 0.5))]
        payloads += [TributaryPayload.from_samples(f"ch{i}", np.full(8, i / 8)) for i in (1, 2, 3, 4)]
        ref = tdm_reference(plan, payloads)
        assert ref.size == 64
        np.testing.assert_array_equal(ref[:32], np.full(32, 0.5))
        np.testing.assert_array_equal(ref[32:40], np.full(8, 1 / 8))

    def test_blocks_copied_verbatim(self):
        plan = make_plan(4, 2, [128000, 64000, 64000])
        payloads = [
            TributaryPayload.from_samples("ch0", [0.5, -0.5]),
            TributaryPayload.from_samples("ch1", [0.25]),
            TributaryPayload.from_samples("ch2", [-0.25]),
        ]
        np.testing.assert_allclose(tdm_reference(plan, payloads), [0.5, -0.5, 0.25, -0.25])

    def test_length_mismatch(self):
        plan = equal_rate_plan(4, 2)
        payloads = [TributaryPayload.from_samples(f"ch{i}", [0.0, 0.0]) for i in range(4)]
        with pytest.raises(PayloadLengthMismatch):
            tdm_reference(plan, payloads)


class TestDftMagnitude:
    def test_dc_only(self):
        np.testing.assert_allclose(dft_magnitude([1.0, 1.0, 1.0, 1.0]), [4, 0, 0, 0], atol=1e-12)

    def test_two_point_alternation(self):
        np.testing.assert_allclose(dft_magnitude([1.0, -1.0]), [0.0, 2.0], atol=1e-15)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(256)
        mags = dft_magnitude(x)
        rel = abs(np.dot(mags, mags) / x.size - np.dot(x, x)) / np.dot(x, x)
        assert rel <= 1e-9

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(16)
        np.testing.assert_allclose(dft_magnitude(x), naive_dft_magnitude(x), atol=1e-9)


class TestRealSignals:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["complex", "text"])
    def test_complex_and_text_input_rejected(self, kind):
        x = np.zeros(8) + 1j if kind == "complex" else np.full(8, "0.5")
        for call in (lambda: dft_magnitude(x), lambda: SpectrumReport.from_signals(x, np.zeros(8)),
                     lambda: SpectrumReport.from_signals(np.zeros(8), x)):
            with pytest.raises(DataError, match="^signal: samples must be real numbers"):
                call()
        with pytest.raises(DataError, match="^TDM magnitudes: samples must be real numbers"):
            SpectrumReport(x, np.zeros(8), 0.0, 0.0)
        with pytest.raises(DataError, match="^multiplexed magnitudes: samples must be real numbers"):
            SpectrumReport(np.zeros(8), x, 0.0, 0.0)


class TestCompareSpectra:
    def test_equal_rate_scenario_shape_and_energy(self):
        plan = equal_rate_plan(64, 2)
        system = make_wavelet_system("haar")
        report = compare_spectra(plan, system, random_payloads(plan, 123))
        assert report.length == 64
        assert len(list(report.rows())) == 64
        rel = abs(report.energy_tdm - report.energy_mrdm) / report.energy_tdm
        assert rel <= 1e-9

    def test_all_zero_payloads_zero_magnitudes(self):
        plan = equal_rate_plan(16, 2)
        system = make_wavelet_system("db4")
        payloads = [TributaryPayload.from_samples(ch.id, np.zeros(4)) for ch in plan.channels]
        report = compare_spectra(plan, system, payloads)
        assert not report.mag_tdm.any()
        assert not report.mag_mrdm.any()
        assert report.energy_tdm == 0.0

    def test_deep_scenario_row_count(self):
        plan = equal_rate_plan(1024, 4, b=1)
        system = make_wavelet_system("db4")
        report = compare_spectra(plan, system, random_payloads(plan, 9))
        assert report.length == 1024

    def test_energy_fields_match_spectral_energy(self):
        plan = equal_rate_plan(128, 3)
        system = make_wavelet_system("db4")
        report = compare_spectra(plan, system, random_payloads(plan, 5))
        for mags, energy in ((report.mag_tdm, report.energy_tdm), (report.mag_mrdm, report.energy_mrdm)):
            rel = abs(np.dot(mags, mags) / report.length - energy) / energy
            assert rel <= 1e-9


class TestDeterminism:
    def test_same_seed_same_payloads(self):
        plan = equal_rate_plan(64, 3)
        a = random_payloads(plan, 42)
        b = random_payloads(plan, 42)
        assert [(p.id, p.bits) for p in a] == [(p.id, p.bits) for p in b]
        c = random_payloads(plan, 43)
        assert [p.bits for p in a] != [p.bits for p in c]

    def test_same_seed_byte_identical_csv(self):
        plan = equal_rate_plan(64, 2)
        system = make_wavelet_system("haar")
        blobs = []
        for _ in range(2):
            report = compare_spectra(plan, system, random_payloads(plan, 7))
            buf = io.StringIO()
            write_report_csv(report, buf, seed=7, levels=plan.levels, wavelet=system.name)
            blobs.append(buf.getvalue())
        assert blobs[0] == blobs[1]
        header, columns = blobs[0].splitlines()[:2]
        assert header == "# seed=7 N=64 J=2 wavelet=haar"
        assert columns == "k,mag_tdm,mag_mrdm"
        assert len(blobs[0].splitlines()) == 2 + 64

    def test_csv_bytes_equal_per_row_writer(self):
        # the block writer must keep the bytes of one f-string per row, over several blocks
        plan = equal_rate_plan(4096, 3)
        report = compare_spectra(plan, make_wavelet_system("db4"), random_payloads(plan, 3))
        buf = io.StringIO()
        write_report_csv(report, buf, seed=3, levels=plan.levels, wavelet="db4")
        expected = "# seed=3 N=4096 J=3 wavelet=db4\nk,mag_tdm,mag_mrdm\n" + "".join(
            f"{k},{tdm:.17g},{mrdm:.17g}\n" for k, tdm, mrdm in report.rows()
        )
        assert buf.getvalue() == expected
