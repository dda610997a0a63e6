"""The four benchmark workloads.

Each workload is one caller in a closed loop: operation i+1 starts only
after operation i has returned and been checked. Inputs are generated from
the seed before timing starts (``spectrum_report`` is the exception: the
``spectrum`` command derives its payloads from ``--seed`` itself, and that
cost is part of the command a user runs). An operation returns the start
and end (``perf_counter_ns``) of each of its sides and an output that
``check`` verifies outside the timed region. ``line_samples`` is the
number of line samples one operation produces and consumes;
``io_counts`` holds the file bytes the last checked operation read and
wrote; ``speed_kernel`` names the kernel of ``speed.py`` whose slow-downs
on a busy host track the workload's.

Sizes are part of each workload's definition; the keyword arguments of the
factories exist so the benchmark's tests can run tiny instances.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from wavemux import cli, framing
from wavemux.framing import TributaryPayload
from wavemux.rateplan import Channel, RatePlan, allocate_bands, plan_to_dict, samples_per_frame, tree_depth
from wavemux.wavelets import make_wavelet_system

#: Reconstruction tolerance for sample-mode payloads.
SAMPLE_TOLERANCE = 1e-10
#: Relative tolerance of the Parseval check on the spectrum CSV.
PARSEVAL_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An operation returned output that does not match its input."""


def _random_bits(rng: np.random.Generator, count: int) -> str:
    return (rng.integers(0, 2, count, dtype=np.uint8) + ord("0")).tobytes().decode("ascii")


def _mra_counts(plan: RatePlan, taps: int, passes: int) -> tuple[int, int]:
    """MACs and compulsory bytes of ``passes`` full-depth transforms.

    Computed from N, J and L, not measured: a level of length M costs M*L
    multiply-accumulates and reads and writes M float64 values once.
    """
    assert tree_depth(allocate_bands(plan)) == plan.levels, "workload plans use the full depth"
    level_lengths = sum(plan.blocklength >> level for level in range(plan.levels))
    return passes * taps * level_lengths, passes * 16 * level_lengths


def _write_plan(plan: RatePlan, path: Path) -> Path:
    path.write_text(json.dumps(plan_to_dict(plan)), encoding="utf-8")
    return path


class FrameRoundTrip:
    """Library workload: ``framing.mux`` then ``framing.demux`` on one frame."""

    sides = ("mux", "demux")

    def __init__(self, name: str, plan: RatePlan, wavelet: str, digital: bool, pool, speed_kernel: str) -> None:
        self.name = name
        self.speed_kernel = speed_kernel
        self.plan = plan
        self.wavelet = wavelet
        self.system = make_wavelet_system(wavelet)
        self.demux_system = self.system
        self.digital = digital
        self.pool = pool
        self.line_samples = plan.blocklength
        self.mra_macs, self.mra_bytes = _mra_counts(plan, self.system.g.size, passes=2)
        self.io_counts = {"read": 0, "written": 0, "csv": 0}

    def op(self, i: int, call):
        payloads = self.pool[i % len(self.pool)]
        t0 = perf_counter_ns()
        signal = call("framing.mux", framing.mux, self.plan, self.system, payloads)
        t1 = perf_counter_ns()
        recovered = call("framing.demux", framing.demux, self.plan, self.demux_system, signal,
                         digital=self.digital)
        t2 = perf_counter_ns()
        return {"mux": (t0, t1), "demux": (t1, t2)}, (payloads, recovered)

    def check(self, i: int, output) -> None:
        sent, recovered = output
        if [p.id for p in recovered] != [p.id for p in sent]:
            raise CheckFailed("channels came back in a different order")
        for s, r in zip(sent, recovered):
            if self.digital:
                if r.bits != s.bits:
                    raise CheckFailed(f"channel {s.id!r}: bits differ")
            elif r.samples.shape != s.samples.shape or not np.all(
                np.abs(r.samples - s.samples) <= SAMPLE_TOLERANCE
            ):
                raise CheckFailed(f"channel {s.id!r}: samples differ by more than {SAMPLE_TOLERANCE}")


class CliRoundTrip:
    """In-process ``wavemux mux`` then ``wavemux demux`` over .bits files."""

    sides = ("mux", "demux")
    speed_kernel = "mixed"

    def __init__(self, name: str, plan: RatePlan, wavelet: str, frames: int, seed: int,
                 workdir: Path, pool_size: int) -> None:
        self.name = name
        self.plan = plan
        self.wavelet = wavelet
        self.plan_path = _write_plan(plan, workdir / "plan.json")
        self.line_path = workdir / "line.f64"
        self.out_dir = workdir / "recovered"
        self.line_samples = frames * plan.blocklength
        taps = make_wavelet_system(wavelet).g.size
        self.mra_macs, self.mra_bytes = _mra_counts(plan, taps, passes=2 * frames)
        self.io_counts = {"read": 0, "written": 0, "csv": 0}

        rng = np.random.default_rng(seed)
        self.pool = []
        for k in range(pool_size):
            directory = workdir / f"payloads{k}"
            directory.mkdir()
            files = {}
            for ch in plan.channels:
                nbytes = samples_per_frame(plan, ch) * plan.resolution * frames // 8
                files[ch.id] = rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()
                (directory / f"{ch.id}.bits").write_bytes(files[ch.id])
            self.pool.append((directory, files))

    def op(self, i: int, call):
        directory, files = self.pool[i % len(self.pool)]
        common = ["--plan", str(self.plan_path), "--wavelet", self.wavelet]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter_ns()
            mux_code = call("cli.main", cli.main, ["mux", str(directory), *common, "--out", str(self.line_path)])
            t1 = perf_counter_ns()
            demux_code = call("cli.main", cli.main,
                              ["demux", str(self.line_path), *common, "--out", str(self.out_dir)])
            t2 = perf_counter_ns()
        return {"mux": (t0, t1), "demux": (t1, t2)}, (mux_code, demux_code, files)

    def check(self, i: int, output) -> None:
        mux_code, demux_code, files = output
        outputs = {channel_id: self.out_dir / f"{channel_id}.bits" for channel_id in files}
        try:
            if mux_code != 0 or demux_code != 0:
                raise CheckFailed(f"exit codes mux={mux_code} demux={demux_code}")
            line_bytes = self.line_path.stat().st_size
            received = {channel_id: path.read_bytes() for channel_id, path in outputs.items()}
        finally:
            # a stale file must never stand in for the next operation's output
            self.line_path.unlink(missing_ok=True)
            for path in outputs.values():
                path.unlink(missing_ok=True)
        for channel_id, sent in files.items():
            if received[channel_id] != sent:
                raise CheckFailed(f"{channel_id}.bits differs from its input")
        payload_bytes = sum(len(sent) for sent in files.values())
        self.io_counts = {
            "read": 2 * self.plan_path.stat().st_size + payload_bytes + line_bytes,
            "written": line_bytes + payload_bytes,
            "csv": 0,
        }


class SpectrumCommand:
    """In-process ``wavemux spectrum --frames k`` writing a CSV report."""

    sides = ("spectrum",)
    speed_kernel = "mixed"

    def __init__(self, name: str, plan: RatePlan, wavelet: str, frames: int, seed: int,
                 workdir: Path) -> None:
        self.name = name
        self.plan = plan
        self.wavelet = wavelet
        self.frames = frames
        self.seed = seed
        self.plan_path = _write_plan(plan, workdir / "plan.json")
        self.csv_path = workdir / "report.csv"
        self.line_samples = frames * plan.blocklength
        taps = make_wavelet_system(wavelet).g.size
        self.mra_macs, self.mra_bytes = _mra_counts(plan, taps, passes=frames)
        self.io_counts = {"read": 0, "written": 0, "csv": 0}

    def _seed(self, i: int) -> int:
        # consecutive invocations use disjoint runs of per-frame seeds
        return ((self.seed << 24) + i * self.frames) & ((1 << 64) - 1)

    def op(self, i: int, call):
        argv = ["spectrum", "--plan", str(self.plan_path), "--wavelet", self.wavelet,
                "--seed", str(self._seed(i)), "--frames", str(self.frames), "--out", str(self.csv_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter_ns()
            code = call("cli.main", cli.main, argv)
            t1 = perf_counter_ns()
        return {"spectrum": (t0, t1)}, code

    def check(self, i: int, code) -> None:
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            text = self.csv_path.read_text(encoding="utf-8")
        finally:
            self.csv_path.unlink(missing_ok=True)
        rows = self.frames * self.plan.blocklength
        header, columns, body = text.split("\n", 2)
        if not header.startswith(f"# seed={self._seed(i)} N={rows} J={self.plan.levels}"):
            raise CheckFailed(f"unexpected header {header!r}")
        if columns != "k,mag_tdm,mag_mrdm":
            raise CheckFailed(f"unexpected column line {columns!r}")
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        if table.shape != (rows, 3) or not np.array_equal(table[:, 0], np.arange(rows)):
            raise CheckFailed(f"expected {rows} rows k=0..{rows - 1}, got shape {table.shape}")
        energy_tdm = float(np.dot(table[:, 1], table[:, 1]))
        energy_mrdm = float(np.dot(table[:, 2], table[:, 2]))
        if abs(energy_tdm - energy_mrdm) > PARSEVAL_TOLERANCE * energy_tdm:
            raise CheckFailed(f"Parseval: column energies {energy_tdm!r} and {energy_mrdm!r} differ")
        size = len(text.encode("utf-8"))
        self.io_counts = {"read": self.plan_path.stat().st_size, "written": size, "csv": size}


# ------------------------------------------------------------------ factories

def voice_trunk(seed: int, workdir: Path, pool: int = 256) -> FrameRoundTrip:
    """The README plan: tiny frames, so fixed per-call cost dominates."""
    r = 64_000
    plan = RatePlan(64, 3, r, 8, (Channel("data", 4 * r),) + tuple(Channel(f"voice{k}", r) for k in range(1, 5)))
    rng = np.random.default_rng(seed)
    frames = [
        [TributaryPayload.from_bits(ch.id, _random_bits(rng, samples_per_frame(plan, ch) * plan.resolution))
         for ch in plan.channels]
        for _ in range(pool)
    ]
    return FrameRoundTrip("voice_trunk", plan, "db4", True, frames, "mixed")


def wideband_ladder(seed: int, workdir: Path, blocklength: int = 1 << 18, pool: int = 4) -> FrameRoundTrip:
    """One sample-mode channel per octave band plus a leaf: transform-bound."""
    r, levels = 8_000, 8
    bands = tuple(Channel(f"band{k}", r << (levels - k)) for k in range(1, levels + 1))
    plan = RatePlan(blocklength, levels, r, 12, bands + (Channel("leaf", r),))
    rng = np.random.default_rng(seed)
    frames = [
        [TributaryPayload.from_samples(ch.id, rng.uniform(-1.0, 1.0, samples_per_frame(plan, ch)))
         for ch in plan.channels]
        for _ in range(pool)
    ]
    return FrameRoundTrip("wideband_ladder", plan, "db4", False, frames, "bulk")


def trunk_files(seed: int, workdir: Path, blocklength: int = 4096, frames: int = 64,
                pool: int = 3) -> CliRoundTrip:
    """File-based mux and demux of 18 channels, 64 frames per invocation."""
    r = 8_000
    channels = (Channel("fast32", 32 * r), Channel("fast16", 16 * r)) + tuple(
        Channel(f"slow{k:02d}", r) for k in range(1, 17)
    )
    plan = RatePlan(blocklength, 6, r, 12, channels)
    return CliRoundTrip("trunk_files", plan, "db4", frames, seed, workdir, pool)


def spectrum_report(seed: int, workdir: Path, blocklength: int = 4096, frames: int = 16) -> SpectrumCommand:
    """``wavemux spectrum --frames 16`` on a haar plan."""
    r = 8_000
    plan = RatePlan(blocklength, 4, r, 8, (
        Channel("a", 8 * r), Channel("b", 4 * r), Channel("c", 2 * r), Channel("d", r), Channel("e", r),
    ))
    return SpectrumCommand("spectrum_report", plan, "haar", frames, seed, workdir)


WORKLOADS = {
    "voice_trunk": voice_trunk,
    "wideband_ladder": wideband_ladder,
    "trunk_files": trunk_files,
    "spectrum_report": spectrum_report,
}
