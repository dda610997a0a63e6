"""Command line front end: exit codes, file formats, golden behavior."""

from __future__ import annotations

import json

import numpy as np
import pytest

from wavemux import ConfigError, load_plan
from wavemux.cli import main
from oracles import per_row_decimal_text

J3_PLAN = {
    "N": 64,
    "J": 3,
    "R_bps": 64000,
    "B": 8,
    "channels": [
        {"id": "alpha", "rate_bps": 256000},
        {"id": "bravo", "rate_bps": 128000},
        {"id": "charlie", "rate_bps": 128000},
    ],
}

EIGHT_BASIC = {
    "N": 64,
    "J": 3,
    "R_bps": 64000,
    "B": 8,
    "channels": [{"id": f"u{i}", "rate_bps": 64000} for i in range(8)],
}


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(J3_PLAN))
    return str(path)


def write_plan(tmp_path, doc, name="plan.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_random_payloads(tmp_path, plan_doc, frames=1, seed=0):
    rng = np.random.default_rng(seed)
    directory = tmp_path / "payloads"
    directory.mkdir(exist_ok=True)
    n, j, b = plan_doc["N"], plan_doc["J"], plan_doc["B"]
    for ch in plan_doc["channels"]:
        spf = (ch["rate_bps"] // plan_doc["R_bps"]) * (n >> j)
        nbytes = spf * b * frames // 8
        (directory / f"{ch['id']}.bits").write_bytes(rng.bytes(nbytes))
    return directory


class TestPlanCommand:
    def test_valid_plan_reports_everything(self, plan_file, capsys):
        assert main(["plan", "--plan", plan_file]) == 0
        out = capsys.readouterr().out
        assert "composition: (1, 2, 0)" in out
        assert "frame_time: 1/1000 s (1 ms)" in out
        assert "aggregate_rate: 512000 bps" in out
        assert "alpha" in out and "leaf" in out

    def test_eight_basic_channels(self, tmp_path, capsys):
        assert main(["plan", "--plan", write_plan(tmp_path, EIGHT_BASIC)]) == 0
        out = capsys.readouterr().out
        assert "composition: (0, 0, 8)" in out
        assert "frame_time: 1/1000 s (1 ms)" in out

    def test_primary_rate_plan(self, tmp_path, capsys):
        doc = {
            "N": 256, "J": 5, "R_bps": 64000, "B": 1,
            "channels": [{"id": f"u{i}", "rate_bps": 64000} for i in range(32)],
        }
        assert main(["plan", "--plan", write_plan(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        assert "aggregate_rate: 2048000 bps" in out
        assert "(125 us)" in out

    def test_illegal_rate_exits_2_and_names_the_rule(self, tmp_path, capsys):
        doc = dict(J3_PLAN, channels=[{"id": "x", "rate_bps": 96000}])
        assert main(["plan", "--plan", write_plan(tmp_path, doc)]) == 2
        assert "IllegalRate" in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["plan", "--plan", str(tmp_path / "nope.json")]) == 3

    @pytest.mark.parametrize(
        "content",
        [
            json.dumps(dict(J3_PLAN, N=64.5)),
            json.dumps(dict(J3_PLAN, J=3.5)),
            json.dumps(dict(J3_PLAN, R_bps=64000.5)),
            json.dumps(dict(J3_PLAN, B=8.5)),
            json.dumps(dict(J3_PLAN, channels=[dict(J3_PLAN["channels"][0], rate_bps=256000.9)]
                            + J3_PLAN["channels"][1:])),
            '{"N": 64, "J": 3,',
            b"\xff\xfe{}",
            json.dumps(dict(J3_PLAN, B=True)),
            json.dumps(dict(J3_PLAN, channels=[dict(J3_PLAN["channels"][0], id=None)]
                            + J3_PLAN["channels"][1:])),
        ],
        ids=["N", "J", "R_bps", "B", "rate_bps", "bad-json", "not-utf8", "bool-B", "null-id"],
    )
    def test_bad_or_non_integral_plan_exits_2(self, tmp_path, content):
        path = tmp_path / "plan.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with pytest.raises(ConfigError):
            load_plan(path)
        assert main(["plan", "--plan", str(path)]) == 2


class TestCompositionsCommand:
    def test_three_scales_table(self, capsys):
        assert main(["compositions", "3"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
        rows = [tuple(int(v) for v in line.split(":")[1].split()) for line in lines]
        assert rows == [
            (2, 0, 0), (1, 2, 0), (1, 1, 2), (1, 0, 4), (0, 4, 0),
            (0, 3, 2), (0, 2, 4), (0, 1, 6), (0, 0, 8),
        ]

    def test_single_scale(self, capsys):
        assert main(["compositions", "1"]) == 0
        body = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert body == ["1: 2"]

    def test_two_scales(self, capsys):
        assert main(["compositions", "2"]) == 0
        body = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert body == ["1: 2 0", "2: 1 2", "3: 0 4"]

    def test_out_of_range_exits_2(self, capsys):
        assert main(["compositions", "9"]) == 2
        assert main(["compositions", "0"]) == 2


class TestMuxDemuxCommands:
    def test_round_trip_byte_identical(self, tmp_path, plan_file):
        payloads = write_random_payloads(tmp_path, J3_PLAN, frames=3, seed=5)
        sig = str(tmp_path / "sig.f64")
        assert main(["mux", str(payloads), "--plan", plan_file, "--wavelet", "haar",
                     "--out", sig]) == 0
        out_dir = tmp_path / "rx"
        assert main(["demux", sig, "--plan", plan_file, "--wavelet", "haar",
                     "--out", str(out_dir)]) == 0
        for ch in J3_PLAN["channels"]:
            cid = ch["id"]
            sent = (payloads / f"{cid}.bits").read_bytes()
            got = (out_dir / f"{cid}.bits").read_bytes()
            assert sent == got, cid

    def test_round_trip_csv_format(self, tmp_path, plan_file):
        payloads = write_random_payloads(tmp_path, J3_PLAN, seed=6)
        sig = str(tmp_path / "sig.csv")
        assert main(["mux", str(payloads), "--plan", plan_file, "--wavelet", "db4",
                     "--format", "csv", "--out", sig]) == 0
        out_dir = tmp_path / "rx"
        assert main(["demux", sig, "--plan", plan_file, "--wavelet", "db4",
                     "--format", "csv", "--out", str(out_dir)]) == 0
        for ch in J3_PLAN["channels"]:
            cid = ch["id"]
            assert (payloads / f"{cid}.bits").read_bytes() == (out_dir / f"{cid}.bits").read_bytes()

    def test_missing_payload_file_exits_3(self, tmp_path, plan_file):
        payloads = write_random_payloads(tmp_path, J3_PLAN)
        (payloads / "bravo.bits").unlink()
        assert main(["mux", str(payloads), "--plan", plan_file,
                     "--out", str(tmp_path / "sig.f64")]) == 3

    def test_partial_trailing_frame_exits_3(self, tmp_path, plan_file):
        payloads = write_random_payloads(tmp_path, J3_PLAN, frames=1)
        with open(payloads / "alpha.bits", "ab") as fh:
            fh.write(b"\xff" * 3)  # 24 extra bits, not a whole frame
        assert main(["mux", str(payloads), "--plan", plan_file,
                     "--out", str(tmp_path / "sig.f64")]) == 3

    def test_sub_byte_frames_round_trip(self, tmp_path):
        # 2 bits per channel per frame: one payload byte carries 4 frames
        doc = {
            "N": 8, "J": 2, "R_bps": 64000, "B": 1,
            "channels": [{"id": f"u{i}", "rate_bps": 64000} for i in range(4)],
        }
        plan = write_plan(tmp_path, doc)
        payloads = tmp_path / "payloads"
        payloads.mkdir()
        rng = np.random.default_rng(44)
        for i in range(4):
            (payloads / f"u{i}.bits").write_bytes(rng.bytes(3))  # 24 bits = 12 frames
        sig = str(tmp_path / "sig.f64")
        assert main(["mux", str(payloads), "--plan", plan, "--out", sig]) == 0
        assert main(["demux", sig, "--plan", plan, "--out", str(tmp_path / "rx")]) == 0
        for i in range(4):
            sent = (payloads / f"u{i}.bits").read_bytes()
            got = (tmp_path / "rx" / f"u{i}.bits").read_bytes()
            assert sent == got

    def test_cross_wavelet_demux_exits_4(self, tmp_path, plan_file):
        # pinned behavior: a signal multiplexed with one wavelet and
        # demultiplexed with another lands off-grid for random payloads
        payloads = write_random_payloads(tmp_path, J3_PLAN, seed=11)
        sig = str(tmp_path / "sig.f64")
        assert main(["mux", str(payloads), "--plan", plan_file, "--wavelet", "db4",
                     "--out", sig]) == 0
        assert main(["demux", sig, "--plan", plan_file, "--wavelet", "haar",
                     "--out", str(tmp_path / "rx")]) == 4

    def test_nan_sample_exits_4(self, tmp_path, plan_file, capsys):
        payloads = write_random_payloads(tmp_path, J3_PLAN, frames=2, seed=13)
        sig = tmp_path / "sig.f64"
        assert main(["mux", str(payloads), "--plan", plan_file, "--out", str(sig)]) == 0
        samples = np.frombuffer(sig.read_bytes(), dtype="<f8").copy()
        samples[64 + 7] = np.nan  # frame 1
        sig.write_bytes(samples.tobytes())
        for payload in ("bits", "samples"):
            capsys.readouterr()
            assert main(["demux", str(sig), "--plan", plan_file, "--payload", payload,
                         "--out", str(tmp_path / "rx")]) == 4
            err = capsys.readouterr().err
            assert err.startswith("demux integrity failure: channel 'alpha', frame 1: "), payload
            assert not (tmp_path / "rx").exists()

    @pytest.mark.filterwarnings("error")
    def test_infinite_csv_sample_exits_4_without_warnings(self, tmp_path, plan_file, capsys):
        payloads = write_random_payloads(tmp_path, J3_PLAN, seed=0)
        sig = tmp_path / "sig.csv"
        common = ["--plan", plan_file, "--wavelet", "db4", "--format", "csv"]
        assert main(["mux", str(payloads), *common, "--out", str(sig)]) == 0
        lines = sig.read_text().splitlines()
        lines[7] = "1e400"  # parses as inf; db4 analysis then meets inf - inf
        sig.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["demux", str(sig), *common, "--out", str(tmp_path / "rx")]) == 4
        assert capsys.readouterr().err.startswith("demux integrity failure: channel 'alpha', frame 0: ")

    @pytest.mark.parametrize("b", [25, 33])
    def test_resolution_above_24_exits_2(self, tmp_path, b):
        doc = dict(J3_PLAN, B=b)
        plan = write_plan(tmp_path, doc)
        payloads = write_random_payloads(tmp_path, doc)
        assert main(["plan", "--plan", plan]) == 2
        assert main(["mux", str(payloads), "--plan", plan,
                     "--out", str(tmp_path / "sig.f64")]) == 2
        sig = tmp_path / "zeros.f64"
        sig.write_bytes(np.zeros(doc["N"], dtype="<f8").tobytes())
        assert main(["demux", str(sig), "--plan", plan, "--payload", "bits",
                     "--out", str(tmp_path / "rx")]) == 2

    def test_ragged_raw_signal_exits_3(self, tmp_path, plan_file):
        sig = tmp_path / "sig.f64"
        sig.write_bytes(bytes(13))
        assert main(["demux", str(sig), "--plan", plan_file,
                     "--out", str(tmp_path / "rx")]) == 3

    def test_ragged_raw_samples_payload_exits_3(self, tmp_path, plan_file):
        directory = tmp_path / "payloads"
        directory.mkdir()
        for cid, cnt in {"alpha": 32, "bravo": 16, "charlie": 16}.items():
            (directory / f"{cid}.samples").write_bytes(np.zeros(cnt, dtype="<f8").tobytes())
        with open(directory / "bravo.samples", "ab") as fh:
            fh.write(bytes(5))
        assert main(["mux", str(directory), "--plan", plan_file,
                     "--out", str(tmp_path / "sig.f64")]) == 3

    def test_off_grid_names_channel_and_frame(self, tmp_path, plan_file, capsys):
        payloads = write_random_payloads(tmp_path, J3_PLAN, frames=3, seed=14)
        sig = tmp_path / "sig.f64"
        assert main(["mux", str(payloads), "--plan", plan_file, "--out", str(sig)]) == 0
        samples = np.frombuffer(sig.read_bytes(), dtype="<f8").copy()
        samples[2 * 64 + 9] += 0.5  # frame 2; under haar it moves alpha's level-1 detail sample
        sig.write_bytes(samples.tobytes())
        capsys.readouterr()
        assert main(["demux", str(sig), "--plan", plan_file,
                     "--out", str(tmp_path / "rx")]) == 4
        assert "channel 'alpha', frame 2: " in capsys.readouterr().err

    @pytest.mark.parametrize("caller", ["demux signal", "mux samples payload"])
    def test_non_numeric_csv_exits_3(self, tmp_path, plan_file, caller):
        bad = "0.5\nabc\n"
        if caller == "demux signal":
            sig = tmp_path / "sig.csv"
            sig.write_text(bad)
            argv = ["demux", str(sig), "--plan", plan_file, "--format", "csv",
                    "--out", str(tmp_path / "rx")]
        else:
            directory = tmp_path / "payloads"
            directory.mkdir()
            for cid, cnt in {"alpha": 32, "bravo": 16, "charlie": 16}.items():
                (directory / f"{cid}.samples").write_text("0.5\n" * cnt)
            (directory / "bravo.samples").write_text(bad)
            argv = ["mux", str(directory), "--plan", plan_file, "--format", "csv",
                    "--out", str(tmp_path / "sig.csv")]
        assert main(argv) == 3

    @pytest.mark.parametrize("fmt, bad", [("raw", np.inf), ("csv", np.nan)])
    def test_non_finite_samples_payload_exits_3(self, tmp_path, plan_file, capsys, fmt, bad):
        directory = tmp_path / "payloads"
        directory.mkdir()
        for cid, cnt in {"alpha": 32, "bravo": 16, "charlie": 16}.items():
            values = np.full(2 * cnt, 0.5)  # two frames
            if cid == "bravo":
                values[cnt + 3] = bad
            if fmt == "raw":
                (directory / f"{cid}.samples").write_bytes(values.astype("<f8").tobytes())
            else:
                (directory / f"{cid}.samples").write_text("".join(f"{v}\n" for v in values))
        capsys.readouterr()
        assert main(["mux", str(directory), "--plan", plan_file, "--format", fmt,
                     "--out", str(tmp_path / "sig")]) == 3
        assert "NonFiniteSample: channel 'bravo', frame 1: sample 3 is " in capsys.readouterr().err
        assert not (tmp_path / "sig").exists()

    def test_mux_line_equals_library_mux_frame_by_frame(self, tmp_path, plan_file):
        from wavemux import TributaryPayload, load_plan, make_wavelet_system, mux

        payloads = write_random_payloads(tmp_path, J3_PLAN, frames=3, seed=15)
        sig = tmp_path / "sig.f64"
        assert main(["mux", str(payloads), "--plan", plan_file, "--wavelet", "db4",
                     "--out", str(sig)]) == 0
        plan, system = load_plan(plan_file), make_wavelet_system("db4")
        streams = {
            ch["id"]: "".join(map(str, np.unpackbits(
                np.frombuffer((payloads / f"{ch['id']}.bits").read_bytes(), np.uint8))))
            for ch in J3_PLAN["channels"]
        }
        frames = []
        for k in range(3):
            frame_payloads = []
            for cid, bits in streams.items():
                per = len(bits) // 3
                frame_payloads.append(TributaryPayload.from_bits(cid, bits[k * per : (k + 1) * per]))
            frames.append(mux(plan, system, frame_payloads).samples)
        assert sig.read_bytes() == np.concatenate(frames).astype("<f8").tobytes()

    @pytest.mark.parametrize("wavelet", ["haar", "db4"])
    def test_csv_files_equal_per_row_writer_of_raw_files(self, tmp_path, plan_file, wavelet):
        # csv mux lines and csv sample payloads hold the bytes one f-string
        # per value gives for the same samples written raw
        payloads = write_random_payloads(tmp_path, J3_PLAN, frames=40, seed=16)
        common = ["--plan", plan_file, "--wavelet", wavelet]
        for fmt in ("raw", "csv"):
            sig = str(tmp_path / f"sig.{fmt}")
            assert main(["mux", str(payloads), *common, "--format", fmt, "--out", sig]) == 0
            assert main(["demux", sig, *common, "--format", fmt, "--payload", "samples",
                         "--out", str(tmp_path / f"rx_{fmt}")]) == 0
        line = np.frombuffer((tmp_path / "sig.raw").read_bytes(), dtype="<f8")
        assert (tmp_path / "sig.csv").read_text() == per_row_decimal_text(line[:, None])
        for ch in J3_PLAN["channels"]:
            name = f"{ch['id']}.samples"
            samples = np.frombuffer((tmp_path / "rx_raw" / name).read_bytes(), dtype="<f8")
            assert (tmp_path / "rx_csv" / name).read_text() == per_row_decimal_text(samples[:, None])

    def test_wrong_signal_length_exits_3(self, tmp_path, plan_file):
        sig = tmp_path / "sig.f64"
        sig.write_bytes(np.zeros(100, dtype="<f8").tobytes())  # not a multiple of 64
        assert main(["demux", str(sig), "--plan", plan_file,
                     "--out", str(tmp_path / "rx")]) == 3

    def test_sample_mode_csv_round_trip(self, tmp_path, plan_file):
        directory = tmp_path / "payloads"
        directory.mkdir()
        rng = np.random.default_rng(12)
        counts = {"alpha": 32, "bravo": 16, "charlie": 16}
        for cid, cnt in counts.items():
            values = rng.uniform(-1, 1, cnt)
            (directory / f"{cid}.samples").write_text(
                "".join(f"{v:.17g}\n" for v in values)
            )
        sig = str(tmp_path / "sig.csv")
        assert main(["mux", str(directory), "--plan", plan_file, "--format", "csv",
                     "--out", sig]) == 0
        out_dir = tmp_path / "rx"
        assert main(["demux", sig, "--plan", plan_file, "--format", "csv",
                     "--payload", "samples", "--out", str(out_dir)]) == 0
        for cid in counts:
            sent = [float(v) for v in (directory / f"{cid}.samples").read_text().split()]
            got = [float(v) for v in (out_dir / f"{cid}.samples").read_text().split()]
            np.testing.assert_allclose(got, sent, atol=1e-10)

    def test_verbose_echoes_coefficients(self, tmp_path, plan_file, capsys):
        from wavemux import make_wavelet_system, parse_coefficients_csv

        payloads = write_random_payloads(tmp_path, J3_PLAN, seed=20)
        assert main(["-v", "mux", str(payloads), "--plan", plan_file, "--wavelet", "db4",
                     "--out", str(tmp_path / "sig.f64")]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("wavelet db4"))
        echoed = parse_coefficients_csv(line.split("g = ")[1])
        assert echoed.tolist() == make_wavelet_system("db4").g.tolist()

    def test_sample_mode_payload_files(self, tmp_path, plan_file):
        directory = tmp_path / "payloads"
        directory.mkdir()
        rng = np.random.default_rng(8)
        counts = {"alpha": 32, "bravo": 16, "charlie": 16}
        for cid, cnt in counts.items():
            (directory / f"{cid}.samples").write_bytes(
                rng.uniform(-1, 1, cnt).astype("<f8").tobytes()
            )
        sig = str(tmp_path / "sig.f64")
        assert main(["mux", str(directory), "--plan", plan_file, "--out", sig]) == 0
        out_dir = tmp_path / "rx"
        assert main(["demux", sig, "--plan", plan_file, "--payload", "samples",
                     "--out", str(out_dir)]) == 0
        for cid in counts:
            sent = np.frombuffer((directory / f"{cid}.samples").read_bytes(), dtype="<f8")
            got = np.frombuffer((out_dir / f"{cid}.samples").read_bytes(), dtype="<f8")
            np.testing.assert_allclose(got, sent, atol=1e-10)


class TestSpectrumCommand:
    def test_row_count_matches_blocklength(self, tmp_path, capsys):
        doc = {
            "N": 128, "J": 2, "R_bps": 64000, "B": 8,
            "channels": [{"id": f"u{i}", "rate_bps": 64000} for i in range(4)],
        }
        out_csv = tmp_path / "spec.csv"
        assert main(["spectrum", "--plan", write_plan(tmp_path, doc), "--seed", "4",
                     "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "# seed=4 N=128 J=2 wavelet=haar"
        assert lines[1] == "k,mag_tdm,mag_mrdm"
        assert len(lines) == 2 + 128

    def test_wider_scenario(self, tmp_path):
        doc = {
            "N": 256, "J": 2, "R_bps": 64000, "B": 8,
            "channels": [{"id": f"u{i}", "rate_bps": 64000} for i in range(4)],
        }
        out_csv = tmp_path / "spec.csv"
        assert main(["spectrum", "--plan", write_plan(tmp_path, doc), "--seed", "0",
                     "--out", str(out_csv)]) == 0
        assert len(out_csv.read_text().splitlines()) == 2 + 256

    def test_repeat_seed_identical_bytes(self, tmp_path, plan_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["spectrum", "--plan", plan_file, "--wavelet", "db4",
                         "--seed", "99", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_multi_frame_concatenation(self, tmp_path, plan_file):
        out_csv = tmp_path / "spec.csv"
        assert main(["spectrum", "--plan", plan_file, "--seed", "1", "--frames", "4",
                     "--out", str(out_csv)]) == 0
        assert len(out_csv.read_text().splitlines()) == 2 + 4 * 64

    def test_multi_frame_bytes_equal_per_frame_library_calls(self, tmp_path, plan_file):
        import io

        from wavemux import (SpectrumReport, dft_magnitude, make_wavelet_system, mux, random_payloads,
                             tdm_reference, write_report_csv)

        plan, system, seed = load_plan(plan_file), make_wavelet_system("db4"), 31
        frames = [random_payloads(plan, seed + k) for k in range(4)]
        x_mrdm = np.concatenate([mux(plan, system, payloads).samples for payloads in frames])
        x_tdm = np.concatenate([tdm_reference(plan, payloads) for payloads in frames])
        report = SpectrumReport(dft_magnitude(x_tdm), dft_magnitude(x_mrdm),
                                float(np.dot(x_tdm, x_tdm)), float(np.dot(x_mrdm, x_mrdm)))
        expected = io.StringIO()
        write_report_csv(report, expected, seed=seed, levels=plan.levels, wavelet="db4")
        out_csv = tmp_path / "spec.csv"
        assert main(["spectrum", "--plan", plan_file, "--wavelet", "db4", "--seed", str(seed),
                     "--frames", "4", "--out", str(out_csv)]) == 0
        assert out_csv.read_bytes() == expected.getvalue().encode("utf-8")


class TestRoundtripCommand:
    def test_self_check_passes(self, plan_file, capsys):
        assert main(["roundtrip", "--plan", plan_file, "--wavelet", "db4", "--seed", "21"]) == 0
        assert "roundtrip ok" in capsys.readouterr().out


class TestCustomWaveletFile:
    def test_mux_demux_with_coefficient_file(self, tmp_path, plan_file):
        from wavemux import format_coefficients_csv, make_wavelet_system

        coeffs = tmp_path / "mine.csv"
        coeffs.write_text(format_coefficients_csv(make_wavelet_system("db4").g) + "\n")
        payloads = write_random_payloads(tmp_path, J3_PLAN, seed=14)
        sig = str(tmp_path / "sig.f64")
        wavelet = f"file:{coeffs}"
        assert main(["mux", str(payloads), "--plan", plan_file, "--wavelet", wavelet,
                     "--out", sig]) == 0
        out_dir = tmp_path / "rx"
        assert main(["demux", sig, "--plan", plan_file, "--wavelet", wavelet,
                     "--out", str(out_dir)]) == 0
        for ch in J3_PLAN["channels"]:
            cid = ch["id"]
            assert (payloads / f"{cid}.bits").read_bytes() == (out_dir / f"{cid}.bits").read_bytes()

    def test_bad_coefficient_file_exits_2(self, tmp_path, plan_file):
        coeffs = tmp_path / "bad.csv"
        coeffs.write_text("1.0,1.0\n")
        payloads = write_random_payloads(tmp_path, J3_PLAN)
        assert main(["mux", str(payloads), "--plan", plan_file,
                     "--wavelet", f"file:{coeffs}", "--out", str(tmp_path / "s.f64")]) == 2

    @pytest.mark.parametrize("content", [b"abc,0.7\n", b"\xff\xfe", b"nan,nan\n", b" ,\n"],
                             ids=["non-numeric", "not-utf8", "nan", "empty"])
    def test_unreadable_coefficient_file_exits_2(self, tmp_path, plan_file, capsys, content):
        coeffs = tmp_path / "bad.csv"
        coeffs.write_bytes(content)
        payloads = write_random_payloads(tmp_path, J3_PLAN)
        capsys.readouterr()
        assert main(["mux", str(payloads), "--plan", plan_file,
                     "--wavelet", f"file:{coeffs}", "--out", str(tmp_path / "s.f64")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["roundtrip", "--plan", plan_file, "--wavelet", f"file:{coeffs}"]) == 2

    def test_coefficients_may_be_separated_by_whitespace(self, tmp_path, plan_file):
        from wavemux import make_wavelet_system

        coeffs = tmp_path / "mine.txt"
        coeffs.write_text("".join(f"{v:.17g}\n" for v in make_wavelet_system("db4").g))
        assert main(["roundtrip", "--plan", plan_file, "--wavelet", f"file:{coeffs}"]) == 0
