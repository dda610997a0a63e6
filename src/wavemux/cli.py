"""Batch command line front end.

Subcommands: ``plan`` (validate and describe a plan file), ``compositions``
(tabulate the admissible channel mixes for J scales), ``mux`` / ``demux``
(file-based multiplex and demultiplex, frame by frame), ``spectrum``
(CSV spectral comparison against the TDM reference), and ``roundtrip``
(self-checking mux-then-demux on seeded random payloads).

Exit codes: 0 success, 2 invalid plan or configuration, 3 I/O or payload
shape problem, 4 demux integrity failure (off-grid samples).

Payload files are named ``<channel-id>.bits`` (packed bytes, bits consumed
MSB-first) or ``<channel-id>.samples``. Sample and signal files are raw
little-endian float64 or decimal CSV, selected by ``--format``. Inputs
longer than one frame are processed frame by frame under the same plan;
partial trailing frames are an error. Digital files are quantized, and
recovered bits decoded, once per channel over the whole stream, so the
frames themselves carry samples.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, OffGrid
from .framing import TributaryPayload, _dequantize_bits, _quantize_bits, demux, mux
from .rateplan import (
    RatePlan,
    aggregate_rate,
    allocate_bands,
    enumerate_compositions,
    frame_time,
    iter_band_slots,
    load_plan,
    plan_digest,
    samples_per_frame,
    tree_leaf,
    tributary_rates,
    validate_plan,
)
from .spectrum import SpectrumReport, compare_spectra, dft_magnitude, random_payloads, tdm_reference, write_report_csv
from .wavelets import FilterPair, format_coefficients_csv, make_wavelet_system, parse_coefficients_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTEGRITY = 4


# ------------------------------------------------------------------- helpers

def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit integer, got {text}")
    return value


def _resolve_wavelet(spec: str, verbose: bool = False) -> FilterPair:
    if spec.startswith("file:"):
        path = Path(spec[len("file:"):])
        coeffs = parse_coefficients_csv(path.read_text(encoding="utf-8").strip())
        pair = make_wavelet_system(coeffs, name=path.stem)
    else:
        pair = make_wavelet_system(spec)
    if verbose:
        # echo preserves the coefficients to 17 significant digits
        print(f"wavelet {pair.name}: g = {format_coefficients_csv(pair.g)}")
    return pair


def _format_seconds(t: Fraction) -> str:
    for unit, scale in (("s", 1), ("ms", 1000), ("us", 1_000_000)):
        scaled = t * scale
        if scaled >= 1:
            if scaled.denominator == 1:
                return f"{scaled.numerator} {unit}"
            return f"{float(scaled):.6g} {unit}"
    return f"{float(t):.6g} s"


def _read_samples(path: Path, fmt: str) -> np.ndarray:
    if fmt == "raw":
        data = path.read_bytes()
        if len(data) % 8:
            raise DataError(f"{path}: {len(data)} bytes is not a whole number of 8-byte samples")
        return np.frombuffer(data, dtype="<f8").astype(float)
    try:
        values = [float(f) for f in path.read_text(encoding="utf-8").replace(",", "\n").split()]
    except ValueError as exc:  # a non-numeric token, or bytes that are not UTF-8
        raise DataError(f"{path}: {exc}") from exc
    return np.array(values)


def _write_samples(path: Path, values: np.ndarray, fmt: str) -> None:
    if fmt == "raw":
        path.write_bytes(np.asarray(values, dtype="<f8").tobytes())
    else:
        path.write_text("".join(f"{float(v):.17g}\n" for v in values), encoding="utf-8")


def _frame_count_digital(total_bits: int, per_frame: int, channel_id: str) -> int:
    frames = total_bits // per_frame
    leftover = total_bits - frames * per_frame
    if frames < 1 or leftover >= 8:
        raise DataError(
            f"channel {channel_id!r}: {total_bits} bits do not form whole frames of {per_frame} bits"
        )
    return frames


# ------------------------------------------------------------------ commands

def cmd_plan(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    try:
        composition = validate_plan(plan)
    except ConfigError as exc:
        print(f"plan invalid: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    tree = allocate_bands(plan)
    t = frame_time(plan)
    print(f"plan: valid  N={plan.blocklength} J={plan.levels} R={plan.basic_rate} B={plan.resolution}")
    if args.verbose:
        print(f"digest: {plan_digest(plan)}")
    print(f"composition: {composition}")
    print(f"frame_time: {t} s ({_format_seconds(t)})")
    print(f"aggregate_rate: {aggregate_rate(plan)} bps")
    print("allocation:")
    placement: dict[str, str] = {}
    for level, slot in iter_band_slots(tree):
        placement[slot.channel_id] = (
            f"detail band level {level}, decimation {slot.decimation}, phase {slot.phase}"
        )
    leaf = tree_leaf(tree)
    placement[leaf.channel_id] = f"approximation leaf at level {leaf.level}"
    for ch in plan.channels:
        spf = samples_per_frame(plan, ch)
        print(f"  {ch.id}: rate {ch.rate} bps, {spf} samples/frame, {placement[ch.id]}")
    return EXIT_OK


def cmd_compositions(args: argparse.Namespace) -> int:
    j = args.levels
    if not 1 <= j <= 8:
        print(f"levels must be in 1..8 for tabular output, got {j}", file=sys.stderr)
        return EXIT_CONFIG
    rows = enumerate_compositions(j)
    tiers = " ".join(f"{m}R" for m in reversed(tributary_rates(j, 1)))
    print(f"# compositions for J={j}; channel counts per rate tier: {tiers}")
    for i, comp in enumerate(rows, start=1):
        print(f"{i}: " + " ".join(str(n) for n in comp))
    return EXIT_OK


def _mux_stream(plan: RatePlan, system: FilterPair, args: argparse.Namespace) -> np.ndarray:
    directory = Path(args.payload_dir)
    streams: dict[str, np.ndarray] = {}
    frame_counts: dict[str, int] = {}
    for ch in plan.channels:
        spf = samples_per_frame(plan, ch)
        bits_path = directory / f"{ch.id}.bits"
        samples_path = directory / f"{ch.id}.samples"
        if bits_path.exists():
            bits = np.unpackbits(np.frombuffer(bits_path.read_bytes(), np.uint8))
            per = spf * plan.resolution
            frames = _frame_count_digital(bits.size, per, ch.id)
            if bits[frames * per :].any():
                raise DataError(f"channel {ch.id!r}: nonzero bits beyond the last whole frame")
            # the whole stream is quantized at once; frames then carry samples
            streams[ch.id] = _quantize_bits(bits[: frames * per], plan.resolution)
            frame_counts[ch.id] = frames
        elif samples_path.exists():
            values = _read_samples(samples_path, args.format)
            if values.size < spf or values.size % spf:
                raise DataError(
                    f"channel {ch.id!r}: {values.size} samples do not form whole frames of {spf}"
                )
            streams[ch.id] = values
            frame_counts[ch.id] = values.size // spf
        else:
            raise DataError(f"no payload file for channel {ch.id!r} in {directory}")

    counts = set(frame_counts.values())
    if len(counts) != 1:
        raise DataError(f"channels disagree on frame count: {frame_counts}")
    n_frames = counts.pop()

    spfs = {ch.id: samples_per_frame(plan, ch) for ch in plan.channels}
    pieces = []
    for k in range(n_frames):
        payloads = [
            TributaryPayload.from_samples(cid, streams[cid][k * spf : (k + 1) * spf])
            for cid, spf in spfs.items()
        ]
        pieces.append(mux(plan, system, payloads).samples)
    return np.concatenate(pieces)


def cmd_mux(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    validate_plan(plan)
    system = _resolve_wavelet(args.wavelet, args.verbose)
    signal = _mux_stream(plan, system, args)
    _write_samples(Path(args.out), signal, args.format)
    print(f"wrote {signal.size} samples ({signal.size // plan.blocklength} frame(s)) to {args.out}")
    return EXIT_OK


def cmd_demux(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    validate_plan(plan)
    system = _resolve_wavelet(args.wavelet, args.verbose)
    signal = _read_samples(Path(args.signal), args.format)
    n = plan.blocklength
    if signal.size < n or signal.size % n:
        raise DataError(f"signal has {signal.size} samples, not a whole number of {n}-sample frames")

    digital = args.payload == "bits"
    per_channel: dict[str, list] = {ch.id: [] for ch in plan.channels}
    for k in range(signal.size // n):
        for p in demux(plan, system, signal[k * n : (k + 1) * n], digital=False):
            per_channel[p.id].append(p.samples)
    streams = {cid: np.concatenate(parts) for cid, parts in per_channel.items()}

    if digital:
        # each channel's stream is decoded at once, before any file is written
        packed = {}
        for ch in plan.channels:
            try:
                bits = _dequantize_bits(streams[ch.id], plan.resolution)
            except OffGrid as exc:
                frame = exc.index // samples_per_frame(plan, ch)
                raise OffGrid(f"channel {ch.id!r}, frame {frame}: {exc}", index=exc.index) from exc
            packed[ch.id] = np.packbits(bits).tobytes()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ch in plan.channels:
        if digital:
            (out_dir / f"{ch.id}.bits").write_bytes(packed[ch.id])
        else:
            _write_samples(out_dir / f"{ch.id}.samples", streams[ch.id], args.format)
    print(f"recovered {len(plan.channels)} channel(s) over {signal.size // n} frame(s) into {out_dir}")
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    validate_plan(plan)
    system = _resolve_wavelet(args.wavelet, args.verbose)
    if args.frames < 1:
        print(f"--frames must be >= 1, got {args.frames}", file=sys.stderr)
        return EXIT_CONFIG

    if args.frames == 1:
        report = compare_spectra(plan, system, random_payloads(plan, args.seed))
    else:
        # multi-frame concatenation before the transform; one seed stream
        mrdm_parts, tdm_parts = [], []
        for k in range(args.frames):
            payloads = random_payloads(plan, args.seed + k)
            mrdm_parts.append(mux(plan, system, payloads).samples)
            tdm_parts.append(tdm_reference(plan, payloads))
        x_mrdm = np.concatenate(mrdm_parts)
        x_tdm = np.concatenate(tdm_parts)
        report = SpectrumReport(
            mag_tdm=dft_magnitude(x_tdm),
            mag_mrdm=dft_magnitude(x_mrdm),
            energy_tdm=float(np.dot(x_tdm, x_tdm)),
            energy_mrdm=float(np.dot(x_mrdm, x_mrdm)),
        )

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        write_report_csv(report, fh, seed=args.seed, levels=plan.levels, wavelet=system.name)
    print(f"wrote {report.length}-row spectrum report to {args.out}")
    return EXIT_OK


def cmd_roundtrip(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    validate_plan(plan)
    system = _resolve_wavelet(args.wavelet, args.verbose)
    payloads = random_payloads(plan, args.seed)
    recovered = demux(plan, system, mux(plan, system, payloads))
    sent = {p.id: p.bits for p in payloads}
    ok = True
    for p in recovered:
        match = sent[p.id] == p.bits
        ok = ok and match
        print(f"  {p.id}: {'ok' if match else 'MISMATCH'} ({len(p.bits)} bits)")
    if not ok:
        print("roundtrip FAILED", file=sys.stderr)
        return EXIT_INTEGRITY
    print(f"roundtrip ok: {len(recovered)} channel(s), seed {args.seed}")
    return EXIT_OK


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavemux",
        description="Wavelet-based multiplexing of tributary channels into one signal.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="echo the resolved wavelet coefficients and plan digest")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="validate a plan file and print its allocation")
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("compositions", help="list admissible channel mixes for J scales")
    p.add_argument("levels", type=int, help="number of scales J (1..8)")
    p.set_defaults(func=cmd_compositions)

    p = sub.add_parser("mux", help="multiplex payload files into a signal file")
    p.add_argument("payload_dir", help="directory with <id>.bits / <id>.samples files")
    p.add_argument("--plan", required=True)
    p.add_argument("--wavelet", default="haar", help="haar | db4 | file:<coeff.csv>")
    p.add_argument("--format", choices=("raw", "csv"), default="raw")
    p.add_argument("--out", required=True, help="output signal file")
    p.set_defaults(func=cmd_mux)

    p = sub.add_parser("demux", help="demultiplex a signal file into payload files")
    p.add_argument("signal", help="input signal file")
    p.add_argument("--plan", required=True)
    p.add_argument("--wavelet", default="haar")
    p.add_argument("--format", choices=("raw", "csv"), default="raw")
    p.add_argument("--payload", choices=("bits", "samples"), default="bits",
                   help="recover digital bit streams (default) or raw samples")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_demux)

    p = sub.add_parser("spectrum", help="write a TDM-vs-multiplex spectrum CSV")
    p.add_argument("--plan", required=True)
    p.add_argument("--wavelet", default="haar")
    p.add_argument("--seed", type=_u64, default=0, help="payload generator seed")
    p.add_argument("--frames", type=int, default=1, help="frames to concatenate before the DFT")
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("roundtrip", help="self-check: mux then demux random payloads")
    p.add_argument("--plan", required=True)
    p.add_argument("--wavelet", default="haar")
    p.add_argument("--seed", type=_u64, default=0)
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OffGrid as exc:
        print(f"demux integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (DataError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
