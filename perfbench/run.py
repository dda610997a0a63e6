"""wavemux benchmark: four closed-loop workloads, one caller each.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--workload all`` (the default) runs every workload in a fresh process of
its own and prints all of their metrics. A single workload prints
``<workload> <metric> <value> <unit>`` lines, an ``env`` line, and last a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Untraced (``--trace 0``), every operation is timed and checked:

* ``<side>_msps``, ``<side>_p50_ms``, ``<side>_tail_ms`` for each side of
  an operation (``mux`` and ``demux``, or ``spectrum``), and ``op_*`` for
  the whole operation: one frame through mux then demux (``voice_trunk``,
  ``wideband_ladder``), one ``mux`` plus one ``demux`` invocation
  (``trunk_files``), one ``spectrum`` invocation (``spectrum_report``).
  Throughput is line samples per second, in millions, as the median over
  eight consecutive blocks of operations. ``tail`` is the sample with
  exactly ten samples above it; its percentile and the sample count are
  printed with it. Failed operations count towards ``error_rate`` and are
  left out of the timings.
* ``<prefix>_norm_msps`` and ``<prefix>_p50_norm_ms``: the same figures at
  the reference speed of the processor (see ``speed.py``). The speed a
  virtual processor of a shared host delivers swings by up to a factor of
  two from second to second; a probe sampled every few milliseconds during
  the run measures it, and each operation's time is rescaled by the speed
  measured while it ran. ``speed_probe_us`` is the median probe time.
* ``setup_s``: median over fresh interpreters of importing the package,
  building the filter pair, loading and validating the plan and running
  the first allocation, at the reference speed; each interpreter times the
  speed probe right after its set-up. ``setup_raw_s`` is the same median
  unscaled.
* ``peak_rss_mb``: peak resident set of the process that ran the workload.

The JSON line carries ``op_norm_msps``, ``op_p50_norm_ms``, ``setup_s``
and ``peak_rss_mb``. Raw throughput, p50 and tail latencies are printed
but not in the JSON line: they follow the host's speed swings, and their
run-to-run spread is close to or above the largest bound a metric may
have.
``error_rate`` is printed; the JSON line carries it as ``failed`` over
``attempted``. With ``--trace 1`` the first half of the time runs
untraced and the second half traced; the JSON line carries the per-layer
metrics (per operation) and ``trace.overhead_pct``, the traced median
operation time over the untraced one. The spans are written to
``.perfbench_out/trace-<workload>.jsonl``, replacing the previous run's.

What each layer metric should move, and where it should not:

* ``rateplan.*`` (validate, allocate, digest, calls): ``op_p50_norm_ms`` on
  ``voice_trunk``; almost nothing on ``wideband_ladder``.
* ``framing.quantize_ms`` / ``framing.dequantize_ms``: ``op_norm_msps`` on
  ``trunk_files`` and ``op_p50_norm_ms`` on ``voice_trunk``; nothing on
  ``wideband_ladder`` (sample mode bypasses the quantizer).
* ``framing.assemble_ms``, ``disassemble_ms``, ``mux_self_ms``,
  ``demux_self_ms``: ``wideband_ladder`` and ``voice_trunk``.
* ``framing.offgrid_samples``: ``error_rate`` on every workload.
* ``mra.*``: ``op_norm_msps`` on ``wideband_ladder``. ``mra.macs`` and
  ``mra.bytes`` are computed from N, J and L, not counted;
  ``mra.gmacs_per_s`` divides them by the synthesis and analysis span time.
* ``cli.self_ms`` (``main`` minus the library spans inside it),
  ``cli.bytes_read``, ``cli.bytes_written``: ``trunk_files``.
* ``spectrum.*``: ``op_p50_norm_ms`` on ``spectrum_report``.
* ``wavelets.make_ms`` (filter-pair build in a fresh process): ``setup_s``.

Layer self times plus ``trace.remainder_ms`` (benchmark code inside the
operation but outside any library span) add up to ``trace.op_ms``.

The measuring process re-executes itself with FIXED_ENV. It pins BLAS to
one thread: there is one caller, and threads competing for the cores would
make the figures depend on the machine's other load.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from speed import SpeedProbe
from tracing import OP_SPAN, Tracer, call_direct

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("voice_trunk", "wideband_ladder", "trunk_files", "spectrum_report")
#: Environment of the measuring process: one BLAS thread, and a fixed string
#: hash seed so that dict and set layouts do not differ from run to run.
FIXED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 15
WARMUP_S = 1.0
WARMUP_MIN_OPS = 2
TAIL_BEYOND = 10
THROUGHPUT_BLOCKS = 8

#: Per-layer time metrics and the span names whose self time each sums.
#: Every span the tracer records maps to exactly one of them.
LAYER_TIMES = {
    "rateplan.validate_ms": "rateplan.validate_plan",
    "rateplan.allocate_ms": "rateplan.allocate_bands",
    "rateplan.digest_ms": "rateplan.plan_digest",
    "framing.quantize_ms": "framing.quantize_words",
    "framing.dequantize_ms": "framing.dequantize_samples",
    "framing.assemble_ms": "framing.assemble_frame",
    "framing.disassemble_ms": "framing.disassemble_frame",
    "framing.mux_self_ms": "framing.mux",
    "framing.demux_self_ms": "framing.demux",
    "mra.synthesize_ms": "mra.synthesize",
    "mra.analyze_ms": "mra.analyze",
    "cli.self_ms": "cli.main",
    "spectrum.payloads_ms": "spectrum.random_payloads",
    "spectrum.tdm_ms": "spectrum.tdm_reference",
    "spectrum.dft_ms": "spectrum.dft_magnitude",
    "spectrum.csv_ms": "spectrum.write_report_csv",
    "trace.remainder_ms": "op",
}
RATEPLAN_SPANS = ("rateplan.validate_plan", "rateplan.allocate_bands", "rateplan.plan_digest")


# ------------------------------------------------------------------ statistics

def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n) of the sample with TAIL_BEYOND samples above it.

    With TAIL_BEYOND or fewer samples the maximum is returned as p100.
    """
    ordered = np.sort(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def throughput_msps(latencies_ns, line_samples: int) -> float:
    """Median over consecutive blocks of line samples per second, in millions."""
    count = len(latencies_ns)
    blocks = min(THROUGHPUT_BLOCKS, count)
    rates = []
    for b in range(blocks):
        block = latencies_ns[b * count // blocks : (b + 1) * count // blocks]
        rates.append(line_samples * len(block) / float(np.sum(block)) * 1e3)
    return statistics.median(rates)


# ----------------------------------------------------------------- measurement

class Run:
    """Start and end ns per side of the successful operations, and counts.

    Times are kept in flat arrays (start, end, start, ...) and turned into
    NumPy arrays, not lists of Python numbers: the number of operations a
    run completes follows the host's speed, and per-operation bookkeeping
    must not make ``peak_rss_mb`` follow it too.
    """

    def __init__(self, sides) -> None:
        self.intervals = {side: array("q") for side in sides}
        self.attempted = 0
        self.failed = 0
        self.next_index = 0

    def _pairs(self, side):
        times = self.intervals[side]
        return zip(times[0::2], times[1::2])

    def op_latencies(self) -> list[int]:
        """Raw ns of each whole operation."""
        per_side = ([end - start for start, end in self._pairs(side)] for side in self.intervals)
        return [sum(ns) for ns in zip(*per_side)]

    def normalized(self, probe: SpeedProbe) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """(raw, normalized) ns per side and for the whole operation ("op")."""
        series = {}
        for side, times in self.intervals.items():
            raw, norm = np.empty(len(times) // 2), np.empty(len(times) // 2)
            for k, (start, end) in enumerate(self._pairs(side)):
                raw[k], norm[k] = probe.normalize(start, end)
            series[side] = (raw, norm)
        series["op"] = tuple(sum(series[side][k] for side in self.intervals) for k in (0, 1))
        return series


def measure(workload, seconds: float, start: int, tracer=None, min_ops: int = 1) -> Run:
    """Run operations back to back for ``seconds`` (at least ``min_ops``)."""
    run = Run(workload.sides)
    call = tracer.span if tracer else call_direct
    index = start
    deadline = perf_counter() + seconds
    while run.attempted < min_ops or perf_counter() < deadline:
        run.attempted += 1
        try:
            if tracer:
                tracer.op_id = index
                intervals, output = tracer.span(OP_SPAN, workload.op, index, call)
            else:
                intervals, output = workload.op(index, call)
            workload.check(index, output)
        except Exception:  # a failed operation is counted; the loop goes on
            run.failed += 1
            if run.failed <= 3:
                print(f"{workload.name}: operation {index} failed:\n{traceback.format_exc()}", file=sys.stderr)
        else:
            for side, interval in intervals.items():
                run.intervals[side].extend(interval)
        index += 1
    run.next_index = index
    return run


def setup_probes(workload, workdir: Path, count: int) -> list[dict]:
    """Run the set-up probe ``count`` times, each in a fresh interpreter."""
    from wavemux.rateplan import plan_to_dict

    plan_path = workdir / "setup_plan.json"
    plan_path.write_text(json.dumps(plan_to_dict(workload.plan)), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    results = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(plan_path), workload.wavelet],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(result["package"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up probe imported wavemux from {result['package']}, not {SRC}")
        results.append(result)
    return results


# --------------------------------------------------------------------- metrics

def end_to_end(workload, run: Run, setup: list[dict], probe: SpeedProbe):
    """Printed lines and JSON metrics of an untraced run sampled by ``probe``."""
    lines, metrics = [], {}
    for prefix, (raw, norm) in run.normalized(probe).items():
        if not len(raw):
            continue
        tail_ns, pct, n = tail(raw)
        norm_msps = throughput_msps(norm, workload.line_samples)
        norm_p50 = float(np.median(norm)) / 1e6
        lines += [
            (f"{prefix}_msps", throughput_msps(raw, workload.line_samples), "Msample/s", ""),
            (f"{prefix}_p50_ms", float(np.median(raw)) / 1e6, "ms", f"n={n}"),
            (f"{prefix}_tail_ms", float(tail_ns) / 1e6, "ms", f"p{pct:.4g} of n={n}"),
            (f"{prefix}_norm_msps", norm_msps, "Msample/s", "at reference speed"),
            (f"{prefix}_p50_norm_ms", norm_p50, "ms", "at reference speed"),
        ]
        if prefix == "op":
            metrics.update(op_norm_msps=(norm_msps, "Msample/s"), op_p50_norm_ms=(norm_p50, "ms"))
    probes, probe_us = probe.summary()
    lines.append(("speed_probe_us", probe_us, "us",
                  f"median of {probes} {workload.speed_kernel} probes; reference speed is {probe.reference_ns / 1e3:g} us"))
    setup_s = statistics.median(r["setup_norm_s"] for r in setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    lines += [
        ("error_rate", run.failed / run.attempted, "ratio", f"{run.failed} of {run.attempted} failed"),
        ("setup_raw_s", statistics.median(r["setup_s"] for r in setup), "s", f"median of {len(setup)} fresh processes"),
        ("setup_s", setup_s, "s", f"median of {len(setup)} fresh processes, at reference speed"),
        ("peak_rss_mb", rss_mb, "MB", ""),
    ]
    metrics.update(setup_s=(setup_s, "s"), peak_rss_mb=(rss_mb, "MB"))
    return lines, metrics


def per_op(count: int, ops: int):
    """A count per operation, exact (an int) when every operation did the same."""
    return count // ops if count % ops == 0 else count / ops


def per_layer(workload, tracer, untraced: Run, traced: Run, setup: list[dict]):
    """Printed lines and JSON metrics of a traced run, per operation."""
    spans = tracer.self_times()
    unmapped = set(spans) - set(LAYER_TIMES.values())
    if unmapped:
        raise RuntimeError(f"spans without a layer metric: {sorted(unmapped)}")
    ops = spans[OP_SPAN][0]
    lines = [(metric, spans.get(name, (0, 0))[1] / ops / 1e6, "ms", "self") for metric, name in LAYER_TIMES.items()]
    op_ms = sum(end - start for name, start, end, _, _ in tracer.spans if name == OP_SPAN) / ops / 1e6
    mra_ms = sum(spans.get(name, (0, 0))[1] for name in ("mra.synthesize", "mra.analyze")) / ops / 1e6
    lines += [
        ("rateplan.calls", per_op(sum(spans.get(name, (0, 0))[0] for name in RATEPLAN_SPANS), ops), "count", ""),
        ("framing.offgrid_samples", per_op(tracer.offgrid_samples, ops), "count", ""),
        ("mra.macs", workload.mra_macs, "MAC-computed", "from N, J, L"),
        ("mra.bytes", workload.mra_bytes, "B-computed", "from N, J"),
        ("mra.gmacs_per_s", workload.mra_macs / mra_ms / 1e6 if mra_ms else 0.0, "GMAC/s", "computed MACs / span time"),
        ("cli.bytes_read", workload.io_counts["read"], "B", "last operation"),
        ("cli.bytes_written", workload.io_counts["written"], "B", "last operation"),
        ("spectrum.csv_bytes", workload.io_counts["csv"], "B", "last operation"),
        ("wavelets.make_ms", statistics.median(r["make_s"] for r in setup) * 1e3, "ms", "fresh process"),
        ("trace.op_ms", op_ms, "ms", f"{ops} traced operations"),
        ("trace.overhead_pct", (statistics.median(traced.op_latencies()) / statistics.median(untraced.op_latencies()) - 1) * 100,
         "%", "traced vs untraced median operation"),
    ]
    return lines, {name: (value, unit) for name, value, unit, _ in lines}


# ------------------------------------------------------------------- reporting

def blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and "/" in line}
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment() -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    if threads is not None and threads > nproc:
        raise RuntimeError(f"BLAS runs {threads} threads on {nproc} processors")
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": threads,
        "git_commit": git_commit(),
    }


def format_value(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS  # imports wavemux, so only once SRC is on the path

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, workdir)
        # the input pool lives for the whole run; keep it out of collections
        gc.collect()
        gc.freeze()
        # set-up probes go before and after the timed loop, so their median
        # does not rest on one moment of the machine's load
        probes = SETUP_PROBES if not trace else 3
        setup = setup_probes(workload, workdir, probes - probes // 2)
        warm = measure(workload, WARMUP_S, 0, min_ops=WARMUP_MIN_OPS)
        if not trace:
            probe = SpeedProbe(workload.speed_kernel)
            with probe.running():
                run = measure(workload, seconds, warm.next_index)
            setup += setup_probes(workload, workdir, probes // 2)
            lines, metrics = end_to_end(workload, run, setup, probe)
            attempted, failed = run.attempted, run.failed
        else:
            untraced = measure(workload, seconds / 2, warm.next_index)
            tracer = Tracer()
            with tracer.installed():
                traced = measure(workload, seconds / 2, untraced.next_index, tracer)
            setup += setup_probes(workload, workdir, probes // 2)
            lines, metrics = per_layer(workload, tracer, untraced, traced, setup)
            attempted, failed = untraced.attempted + traced.attempted, untraced.failed + traced.failed
            tracer.write_jsonl(OUT / f"trace-{name}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for metric, value, unit, note in lines:
        print(f"{name} {metric} {format_value(value)} {unit}" + (f"  ({note})" if note else ""))
    print("env " + json.dumps(environment()))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process, so set-up and memory are its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=seconds + 600,
        )
        sys.stderr.write(proc.stderr)
        output = proc.stdout.strip().splitlines() or ["{}"]
        print("\n".join(output[:-1]))
        try:
            results[name] = json.loads(output[-1])
        except json.JSONDecodeError:
            results[name] = {}
        results[name].setdefault("correct", False)
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "wavemux" / "__init__.py").is_file():
        print(f"perfbench: no wavemux sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))

    if any(os.environ.get(key) != value for key, value in FIXED_ENV.items()):
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], {**os.environ, **FIXED_ENV})
    sys.path.insert(0, str(SRC))
    import wavemux

    if not Path(wavemux.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported wavemux from {wavemux.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
