"""Command line front end: exit codes, file formats, golden behavior."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from wavemux import ConfigError, enumerate_compositions, load_plan, plan_from_dict
from wavemux.cli import build_parser, main
from oracles import per_row_decimal_text, random_scaling_filter

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


# four channels of two 5-bit words per frame: a frame is 10 bits, so
# frames end mid-byte and a file of 3 frames ends in 2 padding bits
B5_SUB_BYTE = {
    "N": 8,
    "J": 2,
    "R_bps": 64000,
    "B": 5,
    "channels": [{"id": f"u{i}", "rate_bps": 64000} for i in range(4)],
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

    def test_verbose_prints_the_plan_digest(self, plan_file, capsys):
        assert main(["-v", "plan", "--plan", plan_file]) == 0
        assert f"\ndigest: {load_plan(plan_file).layout.digest}\n" in capsys.readouterr().out

    def test_frame_time_below_one_microsecond(self, tmp_path, capsys):
        doc = {"N": 2, "J": 1, "R_bps": 10**7, "B": 1,
               "channels": [{"id": "a", "rate_bps": 10**7}, {"id": "b", "rate_bps": 10**7}]}
        assert main(["plan", "--plan", write_plan(tmp_path, doc)]) == 0
        assert "frame_time: 1/10000000 s (1e-07 s)\n" in capsys.readouterr().out

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

    def test_blocklength_above_the_cap_exits_2(self, tmp_path, capsys):
        # refused in validation: compiling would first try to allocate 2^40 indices
        doc = {"N": 1 << 40, "J": 1, "R_bps": 64000, "B": 8,
               "channels": [{"id": "a", "rate_bps": 64000}, {"id": "b", "rate_bps": 64000}]}
        assert main(["plan", "--plan", write_plan(tmp_path, doc)]) == 2
        assert "plan invalid: NTooLarge: blocklength 1099511627776 exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", [10**6, 10**12])
    def test_huge_depth_exits_2(self, tmp_path, capsys, levels):
        # 2^J for these J is a number too long to print, or too large to hold
        doc = dict(J3_PLAN, J=levels)
        assert main(["plan", "--plan", write_plan(tmp_path, doc)]) == 2
        assert (f"plan invalid: DepthExceedsBlocklength: levels={levels} needs a blocklength"
                f" of at least 2^{levels}, got 64") in capsys.readouterr().err

    def test_zero_basic_rate_exits_2(self, tmp_path, capsys):
        assert main(["plan", "--plan", write_plan(tmp_path, dict(J3_PLAN, R_bps=0))]) == 2
        assert "plan invalid: IllegalRate: basic rate must be positive, got 0" in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["plan", "--plan", str(tmp_path / "nope.json")]) == 3

    def test_duplicate_channel_id_exits_2_in_every_subcommand(self, tmp_path, capsys):
        channels = [dict(ch, id=cid) for ch, cid in zip(J3_PLAN["channels"], ("a", "bravo", "a"))]
        plan = write_plan(tmp_path, dict(J3_PLAN, channels=channels))
        assert main(["plan", "--plan", plan]) == 2
        assert capsys.readouterr().err == "plan invalid: DuplicateChannel: channel id 'a' declared twice\n"
        payloads = write_random_payloads(tmp_path, J3_PLAN)
        sig = tmp_path / "sig.f64"
        sig.write_bytes(np.zeros(64, dtype="<f8").tobytes())
        for argv in (["mux", str(payloads), "--out", str(tmp_path / "out.f64")],
                     ["demux", str(sig), "--out", str(tmp_path / "rx")],
                     ["spectrum", "--out", str(tmp_path / "spectrum.csv")],
                     ["roundtrip"]):
            assert main([*argv, "--plan", plan]) == 2, argv[0]
            assert capsys.readouterr().err == "error: DuplicateChannel: channel id 'a' declared twice\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["payloads", "plan.json", "sig.f64"]

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
            json.dumps({k: v for k, v in J3_PLAN.items() if k != "N"}),
            json.dumps(dict(J3_PLAN, channels=[1, 2])),
            json.dumps(dict(J3_PLAN, channels=[dict(J3_PLAN["channels"][0], f_m_hz="x")]
                            + J3_PLAN["channels"][1:])),
            # f_m_hz true would read as 1.0 Hz, which a plan of B = 8 at 16 bit/s accepts
            json.dumps({"N": 8, "J": 1, "R_bps": 16, "B": 8,
                        "channels": [{"id": "a", "rate_bps": 16, "f_m_hz": True}, {"id": "b", "rate_bps": 16}]}),
            json.dumps(dict(J3_PLAN, channels=[dict(J3_PLAN["channels"][0], f_m_hz=float("nan"))]
                            + J3_PLAN["channels"][1:])),
            json.dumps(dict(J3_PLAN, channels=[dict(J3_PLAN["channels"][0], f_m_hz=float("inf"))]
                            + J3_PLAN["channels"][1:])),
            # every number written as text: int() and float() would read it
            json.dumps({"N": "8", "J": "1", "R_bps": "16", "B": "8",
                        "channels": [{"id": "a", "rate_bps": "16", "f_m_hz": "1"}, {"id": "b", "rate_bps": 16}]}),
            # a whole number far beyond float range, where only a float makes sense
            json.dumps(dict(J3_PLAN, channels=[dict(J3_PLAN["channels"][0], f_m_hz=10**399)]
                            + J3_PLAN["channels"][1:])),
            # nested past the JSON parser's recursion depth, alone and inside "channels"
            "[" * 100_000 + "]" * 100_000,
            '{"N": 64, "J": 3, "R_bps": 64000, "B": 8, "channels": ' + "[" * 100_000 + "]" * 100_000 + "}",
        ],
        ids=["N", "J", "R_bps", "B", "rate_bps", "bad-json", "not-utf8", "bool-B", "null-id",
             "missing-N", "int-channels", "text-f_m", "bool-f_m", "nan-f_m", "inf-f_m", "text-numbers",
             "huge-f_m", "deep-nesting", "deep-channels"],
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


def random_plan_document(rng):
    """A valid plan document of 1..4 scales, with f_m_hz on the first channel and on about half the others."""
    j = int(rng.integers(1, 5))
    compositions = enumerate_compositions(j)
    composition = compositions[rng.integers(len(compositions))]
    b = int(rng.integers(1, 25))
    r = 2 * b * int(rng.integers(1, 1000))  # every rate is 2B times a whole f_m_hz
    rates = [r << (j - tier) for tier, count in enumerate(composition, start=1) for _ in range(count)]
    rng.shuffle(rates)
    channels = [{"id": f"c{i}", "rate_bps": rate} for i, rate in enumerate(rates)]
    for i, channel in enumerate(channels):
        if i == 0 or rng.random() < 0.5:
            channel["f_m_hz"] = channel["rate_bps"] // (2 * b)
    return {"N": 1 << (j + int(rng.integers(0, 4))), "J": j, "R_bps": r, "B": b, "channels": channels}


def number_fields(doc):
    """The path of every number in a plan document."""
    yield from [(key,) for key in ("N", "J", "R_bps", "B")]
    for i, channel in enumerate(doc["channels"]):
        yield from [("channels", i, key) for key in ("rate_bps", "f_m_hz") if key in channel]


def with_token(doc, path, token):
    """The JSON text of ``doc`` with the number at ``path`` replaced by the raw JSON ``token``."""
    doc = json.loads(json.dumps(doc))
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = "@@token@@"
    return json.dumps(doc).replace('"@@token@@"', token)


# each is formatted with the field's own value v, so that text, a list or a
# fraction stands for a number the plan would accept
NOT_JSON_NUMBERS = {
    "text": '"{v}"', "true": "true", "null": "null", "list": "[{v}]", "object": "{{}}", "nan": "NaN",
    "infinity": "Infinity", "1e400": "1e400", "fraction": "{v}.5", "400-digits": "1" + "0" * 399,
    "negative": "-{v}",
}


class TestPlanDocumentSweep:
    DOCUMENTS = 4

    @pytest.mark.parametrize("kind", sorted(NOT_JSON_NUMBERS))
    def test_every_number_field_refuses_what_is_not_a_valid_json_number(self, tmp_path, capsys, kind):
        rng = np.random.default_rng(1300)
        path = tmp_path / "plan.json"
        for _ in range(self.DOCUMENTS):
            doc = random_plan_document(rng)
            path.write_text(json.dumps(doc))
            assert main(["plan", "--plan", str(path)]) == 0
            for field in number_fields(doc):
                value = doc[field[0]] if len(field) == 1 else doc["channels"][field[1]][field[2]]
                path.write_text(with_token(doc, field, NOT_JSON_NUMBERS[kind].format(v=value)))
                # read, then compiled, as every command does: a whole number out
                # of range is a valid number but an invalid plan
                with pytest.raises(ConfigError):
                    load_plan(path).layout
                assert main(["plan", "--plan", str(path)]) == 2, (field, path.read_text())
        assert "Traceback" not in capsys.readouterr().err

    def test_a_number_written_with_a_zero_fraction_loads_as_the_number(self, tmp_path):
        rng = np.random.default_rng(1301)
        path = tmp_path / "plan.json"
        for _ in range(self.DOCUMENTS):
            doc = random_plan_document(rng)
            for field in number_fields(doc):
                value = doc[field[0]] if len(field) == 1 else doc["channels"][field[1]][field[2]]
                path.write_text(with_token(doc, field, f"{value}.0"))
                plan = load_plan(path)
                assert plan == plan_from_dict(doc)
                assert all(type(v) is int for v in (plan.blocklength, plan.levels, plan.basic_rate,
                                                     plan.resolution, *(ch.rate for ch in plan.channels)))
                assert main(["plan", "--plan", str(path)]) == 0


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

    def test_channels_disagreeing_on_frame_count_exit_3(self, tmp_path, plan_file, capsys):
        payloads = write_random_payloads(tmp_path, J3_PLAN, frames=2)
        bravo = payloads / "bravo.bits"
        bravo.write_bytes(bravo.read_bytes()[: len(bravo.read_bytes()) // 2])  # one frame of two
        assert main(["mux", str(payloads), "--plan", plan_file, "--out", str(tmp_path / "sig.f64")]) == 3
        assert "channels disagree on frame count: {'alpha': 2, 'bravo': 1, 'charlie': 2}" in capsys.readouterr().err

    def test_samples_payload_of_partial_frames_exits_3(self, tmp_path, plan_file, capsys):
        directory = tmp_path / "payloads"
        directory.mkdir()
        for cid, cnt in {"alpha": 32, "bravo": 24, "charlie": 16}.items():  # bravo: 1.5 frames
            (directory / f"{cid}.samples").write_bytes(np.zeros(cnt, dtype="<f8").tobytes())
        assert main(["mux", str(directory), "--plan", plan_file, "--out", str(tmp_path / "sig.f64")]) == 3
        assert "channel 'bravo': 24 samples do not form whole frames of 16" in capsys.readouterr().err

    def test_channel_with_both_payload_files_exits_3(self, tmp_path, plan_file, capsys):
        payloads = write_random_payloads(tmp_path, J3_PLAN, seed=49)
        (payloads / "bravo.samples").write_bytes(np.zeros(16, dtype="<f8").tobytes())
        sig = tmp_path / "sig.f64"
        capsys.readouterr()
        assert main(["mux", str(payloads), "--plan", plan_file, "--out", str(sig)]) == 3
        assert capsys.readouterr().err == (
            f"error: DataError: channel 'bravo': both {payloads / 'bravo.bits'} and {payloads / 'bravo.samples'}"
            " exist; a channel has one payload file\n")
        assert not sig.exists()

    @pytest.mark.parametrize("bad_id", ["../escaped", "sub/escaped", "nul\0id"])
    def test_id_that_is_not_a_file_name_exits_2_before_any_file(self, tmp_path, capsys, bad_id):
        # the last channel's id names a file outside the payload directory or
        # --out, or none at all; tmp_path holds the files it would read
        good = write_plan(tmp_path, J3_PLAN, "good.json")
        channels = J3_PLAN["channels"][:2] + [dict(J3_PLAN["channels"][2], id=bad_id)]
        plan = write_plan(tmp_path, dict(J3_PLAN, channels=channels), "bad.json")
        payloads = write_random_payloads(tmp_path, J3_PLAN)
        frame = bytes((payloads / "charlie.bits").stat().st_size)
        (tmp_path / "escaped.bits").write_bytes(frame)
        (payloads / "sub").mkdir()
        (payloads / "sub" / "escaped.bits").write_bytes(frame)
        sig = tmp_path / "sig.f64"
        assert main(["mux", str(payloads), "--plan", good, "--out", str(sig)]) == 0
        capsys.readouterr()
        before = {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}

        assert main(["mux", str(payloads), "--plan", plan, "--out", str(tmp_path / "sig2.f64")]) == 2
        assert f"error: ConfigError: channel {bad_id!r}: an id holding a path separator" in capsys.readouterr().err
        out_dir = tmp_path / "rx"
        for payload in ("bits", "samples"):
            assert main(["demux", str(sig), "--plan", plan, "--payload", payload, "--out", str(out_dir)]) == 2
            assert f"channel {bad_id!r}" in capsys.readouterr().err
        assert {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")} == before

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

    def test_b5_frames_ending_mid_byte_round_trip(self, tmp_path):
        plan = write_plan(tmp_path, B5_SUB_BYTE)
        payloads = tmp_path / "payloads"
        payloads.mkdir()
        rng = np.random.default_rng(45)
        for cid in ("u0", "u1", "u2", "u3"):
            data = rng.integers(0, 256, 4, dtype=np.uint8)
            data[-1] &= 0xFC  # 3 frames are 30 bits: the last 2 bits pad the last byte
            (payloads / f"{cid}.bits").write_bytes(data.tobytes())
        sig = str(tmp_path / "sig.f64")
        assert main(["mux", str(payloads), "--plan", plan, "--wavelet", "db4", "--out", sig]) == 0
        assert (tmp_path / "sig.f64").stat().st_size == 3 * 8 * 8
        assert main(["demux", sig, "--plan", plan, "--wavelet", "db4", "--out", str(tmp_path / "rx")]) == 0
        for cid in ("u0", "u1", "u2", "u3"):
            assert (tmp_path / "rx" / f"{cid}.bits").read_bytes() == (payloads / f"{cid}.bits").read_bytes()

    def test_nonzero_padding_bits_exit_3(self, tmp_path, capsys):
        plan = write_plan(tmp_path, B5_SUB_BYTE)
        payloads = tmp_path / "payloads"
        payloads.mkdir()
        for cid in ("u0", "u1", "u2", "u3"):
            (payloads / f"{cid}.bits").write_bytes(bytes([0x5A, 0xC3, 0x0F, 0x3C]))  # 30 bits, 2 zero pad bits
        assert main(["mux", str(payloads), "--plan", plan, "--out", str(tmp_path / "sig.f64")]) == 0
        (payloads / "u2.bits").write_bytes(bytes([0x5A, 0xC3, 0x0F, 0x3D]))  # the last pad bit set
        capsys.readouterr()
        assert main(["mux", str(payloads), "--plan", plan, "--out", str(tmp_path / "sig2.f64")]) == 3
        err = capsys.readouterr().err
        assert err == "error: DataError: channel 'u2': nonzero bits beyond the last whole frame\n"
        assert not (tmp_path / "sig2.f64").exists()

    def test_one_whole_extra_byte_exits_3(self, tmp_path, plan_file, capsys):
        payloads = write_random_payloads(tmp_path, J3_PLAN, frames=2, seed=46)
        with open(payloads / "alpha.bits", "ab") as fh:
            fh.write(b"\0")  # 2 * 256 + 8 bits: a zero byte past the last whole frame
        capsys.readouterr()
        assert main(["mux", str(payloads), "--plan", plan_file, "--out", str(tmp_path / "sig.f64")]) == 3
        err = capsys.readouterr().err
        assert err == "error: DataError: channel 'alpha': 520 bits do not form whole frames of 256 bits\n"

    @pytest.mark.parametrize("doc", [J3_PLAN, dict(J3_PLAN, B=12), B5_SUB_BYTE], ids=["B8", "B12", "B5"])
    def test_bits_files_equal_per_frame_library_calls(self, tmp_path, doc):
        from wavemux import demux, make_wavelet_system

        plan_path = write_plan(tmp_path, doc)
        frames = 4  # B5: 40 bits per channel, whole bytes
        payloads = write_random_payloads(tmp_path, doc, frames=frames, seed=47)
        sig = tmp_path / "sig.f64"
        common = ["--plan", plan_path, "--wavelet", "db4"]
        assert main(["mux", str(payloads), *common, "--out", str(sig)]) == 0
        assert main(["demux", str(sig), *common, "--out", str(tmp_path / "rx")]) == 0
        plan, system = load_plan(plan_path), make_wavelet_system("db4")
        line = np.frombuffer(sig.read_bytes(), dtype="<f8").reshape(frames, -1)
        streams: dict[str, str] = {}
        for frame in line:
            for p in demux(plan, system, frame):
                streams[p.id] = streams.get(p.id, "") + p.bits
        for cid, bits in streams.items():
            expected = np.packbits(np.frombuffer(bits.encode(), np.uint8) - 48).tobytes()
            assert (tmp_path / "rx" / f"{cid}.bits").read_bytes() == expected
            assert expected == (payloads / f"{cid}.bits").read_bytes()

    def test_summary_lines_count_bytes(self, tmp_path, plan_file, capsys):
        payloads = write_random_payloads(tmp_path, J3_PLAN, frames=2, seed=48)
        sig, rx = tmp_path / "sig.f64", tmp_path / "rx"
        capsys.readouterr()
        assert main(["mux", str(payloads), "--plan", plan_file, "--out", str(sig)]) == 0
        # 64 samples of 8 bits per frame in; 64 float64 samples per frame out
        assert capsys.readouterr().out == (
            f"wrote 128 samples (2 frame(s)) to {sig}; 128 payload bytes read, 1024 bytes written\n")
        assert main(["demux", str(sig), "--plan", plan_file, "--out", str(rx)]) == 0
        assert capsys.readouterr().out == (
            f"recovered 3 channel(s) over 2 frame(s) into {rx}; 1024 line bytes read, 128 payload bytes written\n")
        assert main(["demux", str(sig), "--plan", plan_file, "--format", "raw", "--payload", "samples",
                     "--out", str(rx)]) == 0
        assert capsys.readouterr().out.endswith("; 1024 line bytes read, 1024 payload bytes written\n")

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

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_line_sample_exits_4_without_warnings(self, tmp_path, plan_file, capsys):
        payloads = write_random_payloads(tmp_path, J3_PLAN, frames=2, seed=16)
        sig = tmp_path / "sig.f64"
        common = ["--plan", plan_file, "--wavelet", "db4"]
        assert main(["mux", str(payloads), *common, "--out", str(sig)]) == 0
        samples = np.frombuffer(sig.read_bytes(), dtype="<f8").copy()
        samples[64 + 7] = 1e308  # frame 1
        sig.write_bytes(samples.tobytes())
        capsys.readouterr()
        assert main(["demux", str(sig), *common, "--out", str(tmp_path / "rx")]) == 4
        assert capsys.readouterr().err.startswith("demux integrity failure: channel 'alpha', frame 1: ")
        assert not (tmp_path / "rx").exists()

    @pytest.mark.filterwarnings("error")
    def test_line_beyond_the_float_range_exits_3_without_warnings(self, tmp_path, plan_file, capsys):
        directory = tmp_path / "payloads"
        directory.mkdir()
        for cid, cnt in {"alpha": 32, "bravo": 16, "charlie": 16}.items():
            (directory / f"{cid}.samples").write_bytes(np.full(cnt, 1.7e308, dtype="<f8").tobytes())
        capsys.readouterr()
        assert main(["mux", str(directory), "--plan", plan_file, "--wavelet", "db4",
                     "--out", str(tmp_path / "sig")]) == 3
        assert capsys.readouterr().err.startswith("error: DataError: synthesis overflows the float range")
        assert not (tmp_path / "sig").exists()

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


# vars() of the namespace, without func, that the parser gave for each argv
# when every command declared its own options; the handler is named apart
PARSED = [
    (["-v", "plan", "--plan", "p.json"], "cmd_plan", {"command": "plan", "plan": "p.json", "verbose": True}),
    (["plan", "--plan", "p.json"], "cmd_plan", {"command": "plan", "plan": "p.json", "verbose": False}),
    (["-v", "compositions", "3"], "cmd_compositions", {"command": "compositions", "levels": 3, "verbose": True}),
    (["compositions", "3"], "cmd_compositions", {"command": "compositions", "levels": 3, "verbose": False}),
    (["-v", "mux", "in", "--plan", "p.json", "--wavelet", "db4", "--format", "csv", "--out", "line"], "cmd_mux",
     {"command": "mux", "format": "csv", "out": "line", "payload_dir": "in", "plan": "p.json", "verbose": True,
      "wavelet": "db4"}),
    (["mux", "in", "--plan", "p.json", "--out", "line"], "cmd_mux",
     {"command": "mux", "format": "raw", "out": "line", "payload_dir": "in", "plan": "p.json", "verbose": False,
      "wavelet": "haar"}),
    (["-v", "demux", "line", "--plan", "p.json", "--wavelet", "db4", "--format", "csv", "--payload", "samples",
      "--out", "rx"], "cmd_demux",
     {"command": "demux", "format": "csv", "out": "rx", "payload": "samples", "plan": "p.json", "signal": "line",
      "verbose": True, "wavelet": "db4"}),
    (["demux", "line", "--plan", "p.json", "--out", "rx"], "cmd_demux",
     {"command": "demux", "format": "raw", "out": "rx", "payload": "bits", "plan": "p.json", "signal": "line",
      "verbose": False, "wavelet": "haar"}),
    (["-v", "spectrum", "--plan", "p.json", "--wavelet", "db4", "--seed", "7", "--frames", "3", "--out", "r.csv"],
     "cmd_spectrum", {"command": "spectrum", "frames": 3, "out": "r.csv", "plan": "p.json", "seed": 7,
                      "verbose": True, "wavelet": "db4"}),
    (["spectrum", "--plan", "p.json", "--out", "r.csv"], "cmd_spectrum",
     {"command": "spectrum", "frames": 1, "out": "r.csv", "plan": "p.json", "seed": 0, "verbose": False,
      "wavelet": "haar"}),
    (["-v", "roundtrip", "--plan", "p.json", "--wavelet", "db4", "--seed", "9"], "cmd_roundtrip",
     {"command": "roundtrip", "plan": "p.json", "seed": 9, "verbose": True, "wavelet": "db4"}),
    (["roundtrip", "--plan", "p.json"], "cmd_roundtrip",
     {"command": "roundtrip", "plan": "p.json", "seed": 0, "verbose": False, "wavelet": "haar"}),
]


@pytest.mark.parametrize("argv, func, expected", PARSED, ids=[" ".join(argv) for argv, _, _ in PARSED])
def test_every_command_parses_as_before(argv, func, expected):
    parsed = vars(build_parser().parse_args(argv))
    assert parsed.pop("func").__name__ == func
    assert parsed == expected


def corruptions(rng, data, cases):
    """(kind, bytes) pairs: ``data`` cut short at seeded offsets (and at 0), then with one seeded byte flipped."""
    for cut in sorted({0, *rng.integers(0, len(data), cases).tolist()}):
        yield "cut", data[:cut]
    for at in rng.integers(0, len(data), cases).tolist():
        flipped = bytearray(data)
        flipped[at] ^= int(rng.integers(1, 256))
        yield "flip", bytes(flipped)


@pytest.mark.filterwarnings("error")
class TestCorruptFiles:
    """Seeded cuts and byte flips of small payload and line files on the J = 3 plan.

    Each case exits with its documented code (0, 3 for shape or content,
    4 for a line off the grid) and one line on stderr; a NumPy warning
    would raise, and so would any other exception. A cut that leaves no
    whole frame exits 3, and a demux that fails writes no payload file.
    """

    FRAMES = 2

    def run(self, capsys, argv):
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 3, 4), (argv, err)
        prefix = {0: "", 3: "error: ", 4: "demux integrity failure: "}[code]
        assert err.startswith(prefix) and err.count("\n") == (code != 0), (argv, err)
        return code

    def test_payload_files(self, tmp_path, plan_file, capsys):
        rng = np.random.default_rng(600)
        clean = write_random_payloads(tmp_path, J3_PLAN, frames=self.FRAMES, seed=600)
        samples_dir = tmp_path / "samples"
        samples_dir.mkdir()
        for cid, cnt in {"alpha": 32, "bravo": 16, "charlie": 16}.items():
            values = rng.uniform(-1, 1, cnt * self.FRAMES)
            (samples_dir / f"{cid}.samples").write_bytes(values.astype("<f8").tobytes())
        sig, rx = tmp_path / "sig.f64", tmp_path / "rx"
        for source, suffix in ((clean, "bits"), (samples_dir, "samples")):
            for cid in ("alpha", "bravo", "charlie"):
                path = source / f"{cid}.{suffix}"
                data = path.read_bytes()
                for kind, bad in corruptions(rng, data, 8):
                    path.write_bytes(bad)
                    sig.unlink(missing_ok=True)
                    code = self.run(capsys, ["mux", str(source), "--plan", plan_file, "--wavelet", "db4",
                                             "--out", str(sig)])
                    assert sig.exists() == (code == 0)
                    if kind == "cut":  # every cut of a two-frame file leaves a partial or a lone frame
                        assert code == 3
                    elif suffix == "bits":  # every byte is payload: the flip comes back exactly
                        assert code == 0
                        assert self.run(capsys, ["demux", str(sig), "--plan", plan_file, "--wavelet", "db4",
                                                 "--out", str(rx)]) == 0
                        assert (rx / path.name).read_bytes() == bad
                path.write_bytes(data)

    @pytest.mark.parametrize("fmt", ["raw", "csv"])
    def test_line_files(self, tmp_path, plan_file, capsys, fmt):
        rng = np.random.default_rng(610)
        payloads = write_random_payloads(tmp_path, J3_PLAN, frames=self.FRAMES, seed=610)
        common = ["--plan", plan_file, "--wavelet", "db4", "--format", fmt]
        sig, rx = tmp_path / "sig", tmp_path / "rx"
        assert main(["mux", str(payloads), *common, "--out", str(sig)]) == 0
        for kind, bad in corruptions(rng, sig.read_bytes(), 40):
            sig.write_bytes(bad)
            # a csv line holds at most one number more than it holds newlines
            no_whole_frame = len(bad) < 64 * 8 if fmt == "raw" else bad.count(b"\n") + 1 < 64
            for payload in ("bits", "samples"):
                code = self.run(capsys, ["demux", str(sig), *common, "--payload", payload, "--out", str(rx)])
                if kind == "cut" and no_whole_frame:
                    assert code == 3, (fmt, len(bad))
                assert rx.exists() == (code == 0)
                shutil.rmtree(rx, ignore_errors=True)


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

    def test_zero_frames_exits_2(self, tmp_path, plan_file, capsys):
        out_csv = tmp_path / "spec.csv"
        assert main(["spectrum", "--plan", plan_file, "--frames", "0", "--out", str(out_csv)]) == 2
        assert "--frames must be >= 1, got 0" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_negative_seed_exits_2(self, tmp_path, plan_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--plan", plan_file, "--seed", "-1", "--out", str(tmp_path / "spec.csv")])
        assert exc.value.code == 2
        assert "seed must be an unsigned 64-bit integer, got -1" in capsys.readouterr().err

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
    @pytest.mark.parametrize("taps", ["db4", 4, 6, 8], ids=lambda t: t if t == "db4" else f"lattice{t}")
    def test_mux_demux_with_coefficient_file(self, tmp_path, plan_file, taps):
        # db4, and seeded random paraunitary lattices of 4, 6 and 8 taps
        from wavemux import format_coefficients_csv, make_wavelet_system

        if taps == "db4":
            g = make_wavelet_system("db4").g
        else:
            g = random_scaling_filter(np.random.default_rng(taps), taps // 2)
        coeffs = tmp_path / "mine.csv"
        coeffs.write_text(format_coefficients_csv(g) + "\n")
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
        report = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--plan", plan_file, "--wavelet", wavelet, "--seed", "3",
                     "--out", str(report)]) == 0
        assert len(report.read_text().splitlines()) == 2 + J3_PLAN["N"]
        assert main(["roundtrip", "--plan", plan_file, "--wavelet", wavelet]) == 0

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
