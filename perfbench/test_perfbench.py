"""Tests of the benchmark itself. Run with: python -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wavemux import framing  # noqa: E402
from wavemux.errors import OffGrid  # noqa: E402
from wavemux.wavelets import make_wavelet_system  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "voice_trunk": dict(pool=4),
    "wideband_ladder": dict(blocklength=1 << 10, pool=2),
    "trunk_files": dict(blocklength=64, frames=2, pool=2),
    "spectrum_report": dict(blocklength=64, frames=2),
}


def tiny(name, workdir, seed=5):
    return workloads.WORKLOADS[name](seed, workdir, **TINY[name])


def traced_run(workload, seconds=0.1, min_ops=3):
    untraced = run.measure(workload, seconds, 0, min_ops=min_ops)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run.measure(workload, seconds, untraced.next_index, tracer, min_ops=min_ops)
    return tracer, untraced, traced


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_reports_every_metric_with_its_unit(name, tmp_path):
    workload = tiny(name, tmp_path)
    setup = run.setup_probes(workload, tmp_path, 1)

    probe = speed.SpeedProbe(workload.speed_kernel)
    with probe.running():
        measured = run.measure(workload, 0.1, 0, min_ops=3)
    lines, metrics = run.end_to_end(workload, measured, setup, probe)
    printed = {metric: (value, unit) for metric, value, unit, _ in lines}
    sides = ("mux", "demux") if name != "spectrum_report" else ("spectrum",)
    for prefix in sides + ("op",):
        assert printed[f"{prefix}_msps"][1] == printed[f"{prefix}_norm_msps"][1] == "Msample/s"
        assert printed[f"{prefix}_p50_ms"][1] == printed[f"{prefix}_p50_norm_ms"][1] == "ms"
        assert printed[f"{prefix}_tail_ms"][1] == "ms"
    assert printed["speed_probe_us"][0] > 0
    assert printed["error_rate"] == (0.0, "ratio")
    assert measured.failed == 0 and measured.attempted >= 3
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {metric: unit for metric, (_, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _ in metrics.values())

    tracer, untraced, traced = traced_run(workload)
    assert traced.failed == 0
    lines, metrics = run.per_layer(workload, tracer, untraced, traced, setup)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {metric: unit for metric, (_, unit) in metrics.items()} == declared
    # layer self times plus the remainder outside any span add up to the operation
    self_ms = sum(metrics[metric][0] for metric in run.LAYER_TIMES)
    assert self_ms == pytest.approx(metrics["trace.op_ms"][0], rel=1e-9)


def test_tracer_restores_every_name_and_skips_missing_ones(tmp_path, monkeypatch):
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.WRAPPED_NAMES}
    monkeypatch.setattr(tracing, "WRAPPED_NAMES",
                        tracing.WRAPPED_NAMES + (("wavemux.framing", "renamed_away", "framing.gone"),))
    workload = tiny("voice_trunk", tmp_path)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert framing.assemble_frame is not before[("wavemux.framing", "assemble_frame")]
            run.measure(workload, 0.0, 0, tracer)
            raise RuntimeError("leave the block early")
    after = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.WRAPPED_NAMES[:-1]}
    assert after == before
    assert "framing.gone" not in tracer.self_times()


def test_speed_probe_leaves_out_its_own_time_and_scales_to_the_reference():
    probe = speed.SpeedProbe()
    ref = probe.reference_ns
    gap = int(speed.INTERVAL_S * 1e9)
    # one probe per sampling period, each spending 3 * its timed duration in the handler
    for start, duration in ((0, ref), (gap, 2 * ref), (2 * gap, 2 * ref)):
        probe.starts.append(start)
        probe.durations.append(duration)
        probe.spent.append(3 * duration)
    raw, norm = probe.normalize(0, 5 * gap // 2)
    assert raw == 5 * gap // 2 - 15 * ref
    assert norm == pytest.approx(raw * (1 + 0.5 + 0.5) / 3)
    # shorter than the sampling period: the probes around it set its speed
    raw, norm = probe.normalize(6 * gap // 5, 7 * gap // 5)
    assert raw == gap // 5
    assert norm == pytest.approx(raw * 0.5)
    # a gap of several periods between probes: the nearest one on each side
    probe.starts.append(20 * gap)
    probe.durations.append(ref)
    probe.spent.append(3 * ref)
    raw, norm = probe.normalize(10 * gap, 11 * gap)
    assert raw == gap
    assert norm == pytest.approx(raw * (0.5 + 1) / 2)


def test_speed_probe_stops_its_timer_on_error():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    with pytest.raises(RuntimeError):
        with probe.running():
            deadline = speed.perf_counter_ns() + 50_000_000
            while speed.perf_counter_ns() < deadline:
                pass
            raise RuntimeError("leave the block early")
    assert probe.durations
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_negative_control_wrong_wavelet_counts_as_failure(tmp_path):
    workload = tiny("voice_trunk", tmp_path)
    workload.demux_system = make_wavelet_system("haar")  # signal is db4
    with pytest.raises(OffGrid):
        workload.op(0, tracing.call_direct)

    tracer, untraced, traced = traced_run(workload, min_ops=4)
    assert untraced.failed == untraced.attempted >= 4
    assert traced.failed == traced.attempted >= 4
    assert tracer.offgrid_samples > 0
    assert all(not values for values in traced.intervals.values())


def test_exact_counts_for_small_configurations(tmp_path):
    voice = workloads.voice_trunk(1, tmp_path / "voice", pool=2)
    tracer, untraced, traced = traced_run(voice)
    _, metrics = run.per_layer(voice, tracer, untraced, traced, [{"make_s": 0.0}])
    # mux: validate, allocate (+ its own validate), digest; demux the same
    assert metrics["rateplan.calls"][0] == 8
    # N=64, J=3, L=4: (64 + 32 + 16) * 4 MACs per direction
    assert metrics["mra.macs"][0] == 896
    assert metrics["mra.bytes"][0] == 2 * 16 * (64 + 32 + 16)

    (tmp_path / "files").mkdir()
    files = tiny("trunk_files", tmp_path / "files")
    tracer, untraced, traced = traced_run(files)
    _, metrics = run.per_layer(files, tracer, untraced, traced, [{"make_s": 0.0}])
    # two frames; demux of a raw signal skips the digest: (4 + 3) calls each
    assert metrics["rateplan.calls"][0] == 14
    levels = 64 + 32 + 16 + 8 + 4 + 2
    assert metrics["mra.macs"][0] == 4 * 4 * levels
    assert metrics["mra.bytes"][0] == 4 * 16 * levels
    # 32 + 16 + 16 * 1 samples of 12 bits per frame, two frames; line is 2 * 64 float64
    payload, line = (32 + 16 + 16) * 12 * 2 // 8, 2 * 64 * 8
    plan_bytes = files.plan_path.stat().st_size
    assert metrics["cli.bytes_read"][0] == 2 * plan_bytes + payload + line
    assert metrics["cli.bytes_written"][0] == line + payload


def test_spectrum_check_rejects_broken_parseval(tmp_path):
    workload = tiny("spectrum_report", tmp_path)
    _, code = workload.op(0, tracing.call_direct)
    text = workload.csv_path.read_text().splitlines()
    k, tdm, mrdm = text[-1].split(",")
    text[-1] = f"{k},{tdm},{float(mrdm) + 1.0}"
    workload.csv_path.write_text("\n".join(text) + "\n")
    with pytest.raises(workloads.CheckFailed, match="Parseval"):
        workload.check(0, code)


def test_command_prints_contract_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "voice_trunk", "--seed", "3", "--seconds", "0.5",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "openblas_threads" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "voice_trunk", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
