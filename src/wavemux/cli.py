"""Batch command line front end.

Subcommands: ``plan`` (validate and describe a plan file), ``compositions``
(tabulate the admissible channel mixes for J scales), ``mux`` / ``demux``
(file-based multiplex and demultiplex), ``spectrum`` (CSV spectral
comparison against the TDM reference), and ``roundtrip`` (self-checking
mux-then-demux on seeded random payloads).

Exit codes: 0 success, 2 invalid plan or configuration, 3 I/O or payload
shape problem, 4 demux integrity failure (off-grid samples).

Each option that several commands take (``--plan``, ``--wavelet``,
``--format``, ``--seed``) is declared once, with one help text, in a
parent parser that those commands share.

Payload files are named ``<channel-id>.bits`` (packed bytes, bits consumed
MSB-first) or ``<channel-id>.samples``; a plan whose ids hold a path
separator or NUL is refused (exit 2) before any payload file is opened,
and a directory that holds both files of one channel is refused (exit 3)
before either is read. One reader, ``_read_payload``, finds and checks
every payload file.
Sample and signal files are raw little-endian float64 or decimal CSV,
selected by ``--format``. Inputs may hold any whole number of frames
under the same plan; partial trailing frames are an error. Each
channel's whole stream is quantized straight from its file bytes, and
its recovered samples decoded straight to them, in one call of the
packed-byte codec core; the streams fill
the columns of one ``(frames, N)`` TDM array, so ``mux``, ``demux`` and
``spectrum`` each make one call to ``framing.mux_frames`` or
``framing.demux_frames``. ``mux`` and ``demux`` end with a summary line
that counts the frames and the file bytes read and written.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, OffGrid
from .framing import _dequantize_packed, _quantize_packed, demux, demux_frames, mux, mux_frames
from .rateplan import (
    RatePlan,
    aggregate_rate,
    enumerate_compositions,
    frame_time,
    load_plan,
    tributary_rates,
)
from .spectrum import SpectrumReport, random_payloads, tdm_reference, write_report_csv
from .wavelets import (
    FilterPair,
    decimal_rows,
    format_coefficients_csv,
    make_wavelet_system,
    parse_coefficients_csv,
    parse_decimals,
)

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


def _load(args: argparse.Namespace) -> tuple[RatePlan, FilterPair]:
    """The compiled plan, then the wavelet: a bad plan is reported first."""
    plan = load_plan(args.plan)
    plan.layout  # compiling validates the plan
    return plan, _resolve_wavelet(args.wavelet, args.verbose)


def _check_payload_names(plan: RatePlan) -> None:
    """Refuse a channel id that cannot name its payload file.

    A payload file is named by its channel id, so an id that holds a path
    separator or NUL, which would name a file outside the payload
    directory or none at all, is refused before any payload file is opened.
    """
    for ch in plan.channels:
        if any(c in ch.id for c in ("/", "\0", os.sep, os.altsep) if c):
            raise ConfigError(
                f"channel {ch.id!r}: an id holding a path separator or NUL cannot name a payload file"
            )


def _resolve_wavelet(spec: str, verbose: bool = False) -> FilterPair:
    if spec.startswith("file:"):
        path = Path(spec[len("file:"):])
        try:
            coeffs = parse_coefficients_csv(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # a non-numeric token, or bytes that are not UTF-8
            raise ConfigError(f"{path}: {exc}") from exc
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


def _read_samples(path: Path, fmt: str) -> tuple[np.ndarray, int]:
    """The samples in ``path``, and the file's size in bytes.

    Raw samples are a read-only view of the file's bytes.
    """
    data = path.read_bytes()
    if fmt == "raw":
        if len(data) % 8:
            raise DataError(f"{path}: {len(data)} bytes is not a whole number of 8-byte samples")
        return np.frombuffer(data, dtype="<f8").astype(float, copy=False), len(data)
    try:
        return parse_decimals(data.decode("utf-8")), len(data)
    except ValueError as exc:  # a non-numeric token, or bytes that are not UTF-8
        raise DataError(f"{path}: {exc}") from exc


def _encode_samples(values: np.ndarray, fmt: str):
    """The file bytes of ``values``: a view of them (raw) or their decimal text (csv)."""
    if fmt == "raw":
        return np.ascontiguousarray(values, dtype="<f8").data
    return "".join(decimal_rows([values])).encode("utf-8")


def _read_payload(directory: Path, channel_id: str, spf: int, resolution: int, fmt: str) -> tuple[np.ndarray, int]:
    """The channel's payload as a ``(frames, spf)`` block of samples, and its file's size in bytes.

    The payload is ``<id>.bits`` or ``<id>.samples``; a directory holding
    neither, or both, is refused. Either file holds whole frames of
    ``spf`` samples. In a ``.bits`` file, bits past the last whole frame
    may only pad the last byte, and must be zero.
    """
    bits, samples = directory / f"{channel_id}.bits", directory / f"{channel_id}.samples"
    has_bits, has_samples = bits.exists(), samples.exists()
    if has_bits and has_samples:
        raise DataError(f"channel {channel_id!r}: both {bits} and {samples} exist; a channel has one payload file")
    if has_samples:
        values, size = _read_samples(samples, fmt)
        if values.size < spf or values.size % spf:
            raise DataError(f"channel {channel_id!r}: {values.size} samples do not form whole frames of {spf}")
        return values.reshape(-1, spf), size
    if not has_bits:
        raise DataError(f"no payload file for channel {channel_id!r} in {directory}")
    data = np.frombuffer(bits.read_bytes(), np.uint8)
    per = spf * resolution
    nbits = 8 * data.size
    whole = nbits - nbits % per
    if not whole or nbits - whole >= 8:
        raise DataError(f"channel {channel_id!r}: {nbits} bits do not form whole frames of {per} bits")
    if data[-1] & ((1 << (nbits - whole)) - 1):
        raise DataError(f"channel {channel_id!r}: nonzero bits beyond the last whole frame")
    return _quantize_packed(data, whole // resolution, resolution).reshape(-1, spf), data.size


# ------------------------------------------------------------------ commands

def cmd_plan(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    try:
        layout = plan.layout
    except ConfigError as exc:
        print(f"plan invalid: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    t = frame_time(plan)
    print(f"plan: valid  N={plan.blocklength} J={plan.levels} R={plan.basic_rate} B={plan.resolution}")
    if args.verbose:
        print(f"digest: {layout.digest}")
    print(f"composition: {layout.composition}")
    print(f"frame_time: {t} s ({_format_seconds(t)})")
    print(f"aggregate_rate: {aggregate_rate(plan)} bps")
    print("allocation:")
    allocation = layout.allocation
    placement = {slot.channel_id: f"detail band level {level}, decimation {slot.decimation}, phase {slot.phase}"
                 for level, band in enumerate(allocation.bands, start=1) for slot in band}
    placement[allocation.leaf] = f"approximation leaf at level {allocation.depth}"
    for ch, (lo, hi) in zip(plan.channels, layout.bounds):
        print(f"  {ch.id}: rate {ch.rate} bps, {hi - lo} samples/frame, {placement[ch.id]}")
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


def cmd_mux(args: argparse.Namespace) -> int:
    plan, system = _load(args)
    _check_payload_names(plan)
    blocks, read = [], 0  # each channel's stream as (frames, samples per frame), in TDM order
    for ch, (lo, hi) in zip(plan.channels, plan.layout.bounds):
        block, size = _read_payload(Path(args.payload_dir), ch.id, hi - lo, plan.resolution, args.format)
        blocks.append(block)
        read += size
    if len({len(block) for block in blocks}) != 1:
        counts = {ch.id: len(block) for ch, block in zip(plan.channels, blocks)}
        raise DataError(f"channels disagree on frame count: {counts}")
    tdm = np.concatenate(blocks, axis=1)
    signal = mux_frames(plan, system, tdm)
    written = Path(args.out).write_bytes(_encode_samples(signal, args.format))
    print(f"wrote {signal.size} samples ({len(tdm)} frame(s)) to {args.out};"
          f" {read} payload bytes read, {written} bytes written")
    return EXIT_OK


def cmd_demux(args: argparse.Namespace) -> int:
    plan, system = _load(args)
    _check_payload_names(plan)
    line, read = _read_samples(Path(args.signal), args.format)
    tdm = demux_frames(plan, system, line)
    files = {}  # every channel is decoded before any file is written
    for ch, (lo, hi) in zip(plan.channels, plan.layout.bounds):
        stream = tdm[:, lo:hi]  # the channel's samples, frame after frame
        if args.payload == "samples":
            files[f"{ch.id}.samples"] = _encode_samples(stream.reshape(-1), args.format)
            continue
        files[f"{ch.id}.bits"] = _dequantize_packed(stream, plan.resolution, ch.id)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = sum((out_dir / name).write_bytes(data) for name, data in files.items())
    print(f"recovered {len(plan.channels)} channel(s) over {len(tdm)} frame(s) into {out_dir};"
          f" {read} line bytes read, {written} payload bytes written")
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    plan, system = _load(args)
    if args.frames < 1:
        print(f"--frames must be >= 1, got {args.frames}", file=sys.stderr)
        return EXIT_CONFIG
    # frame k carries the payloads of seed + k; the frames are concatenated before the DFT
    tdm = np.stack([tdm_reference(plan, random_payloads(plan, args.seed + k)) for k in range(args.frames)])
    report = SpectrumReport.from_signals(tdm.reshape(-1), mux_frames(plan, system, tdm))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        write_report_csv(report, fh, seed=args.seed, levels=plan.levels, wavelet=system.name)
    print(f"wrote {report.length}-row spectrum report to {args.out}")
    return EXIT_OK


def cmd_roundtrip(args: argparse.Namespace) -> int:
    plan, system = _load(args)
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

    # one parent parser per shared option, declared once for every command that takes it
    plan, wavelet, fmt, seed = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    plan.add_argument("--plan", required=True, help="plan JSON file")
    wavelet.add_argument("--wavelet", default="haar", help="haar | db4 | file:<coeff.csv>")
    fmt.add_argument("--format", choices=("raw", "csv"), default="raw")
    seed.add_argument("--seed", type=_u64, default=0, help="payload generator seed")

    def command(name, func, help, *parents):
        """Register subcommand ``name``, run by ``func``; returns its ``add_argument``."""
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(func=func)
        return p.add_argument

    command("plan", cmd_plan, "validate a plan file and print its allocation", plan)
    add = command("compositions", cmd_compositions, "list admissible channel mixes for J scales")
    add("levels", type=int, help="number of scales J (1..8)")
    add = command("mux", cmd_mux, "multiplex payload files into a signal file", plan, wavelet, fmt)
    add("payload_dir", help="directory with <id>.bits / <id>.samples files")
    add("--out", required=True, help="output signal file")
    add = command("demux", cmd_demux, "demultiplex a signal file into payload files", plan, wavelet, fmt)
    add("signal", help="input signal file")
    add("--payload", choices=("bits", "samples"), default="bits",
        help="recover digital bit streams (default) or raw samples")
    add("--out", required=True, help="output directory")
    add = command("spectrum", cmd_spectrum, "write a TDM-vs-multiplex spectrum CSV", plan, wavelet, seed)
    add("--frames", type=int, default=1, help="frames to concatenate before the DFT")
    add("--out", required=True, help="output CSV file")
    command("roundtrip", cmd_roundtrip, "self-check: mux then demux random payloads", plan, wavelet, seed)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built at the first :func:`main` call of the process and kept."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
