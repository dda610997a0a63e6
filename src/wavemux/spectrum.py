"""Spectral comparison against a plain time-division reference.

For the same payloads two signals of identical length are formed: the
wavelet-multiplexed signal, and a reference built by simply concatenating
the channels' sample blocks in declaration order (classic TDM framing).
The reference is the TDM row the multiplexer itself starts from
(:func:`tdm_reference` is :func:`wavemux.framing.tdm_row`), so over any
number of frames the coefficient frames are a permutation of the TDM
samples; synthesis is orthonormal, so the two signals always carry the
same energy. Their magnitude spectra, however, differ markedly and
depend on the chosen wavelet.

Reports use bin indices k = 0..N-1 with the unnormalized transform
X[k] = sum_n x[n] exp(-2 pi i k n / N), so Parseval reads
sum_k |X[k]|^2 / N = sum_n x[n]^2. Both signals are real, so the
spectrum is Hermitian, |X[N-k]| = |X[k]| (Sorensen, Jones, Heideman &
Burrus 1987): :func:`dft_magnitude` takes the real-input FFT of bins
0..N/2 and mirrors it, and :func:`write_report_csv` formats those bins
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .framing import TributaryPayload, mux
from .framing import tdm_row as tdm_reference
from .mra import _real
from .rateplan import RatePlan
from .wavelets import FilterPair, decimal_rows

__all__ = [
    "SpectrumReport",
    "tdm_reference",
    "dft_magnitude",
    "compare_spectra",
    "random_payloads",
    "write_report_csv",
]


@dataclass(frozen=True)
class SpectrumReport:
    """Magnitude spectra of the TDM reference and the multiplexed signal."""

    mag_tdm: np.ndarray
    mag_mrdm: np.ndarray
    energy_tdm: float
    energy_mrdm: float

    def __post_init__(self) -> None:
        mag_tdm = _real(self.mag_tdm, "TDM magnitudes")
        mag_mrdm = _real(self.mag_mrdm, "multiplexed magnitudes")
        object.__setattr__(self, "mag_tdm", mag_tdm)
        object.__setattr__(self, "mag_mrdm", mag_mrdm)
        if mag_tdm.shape != mag_mrdm.shape or mag_tdm.ndim != 1:
            raise ValueError("both spectra must be 1-D arrays of identical length")

    @classmethod
    def from_signals(cls, x_tdm: np.ndarray, x_mrdm: np.ndarray) -> "SpectrumReport":
        """Spectra and energies of a TDM reference and its multiplexed line, both real (DataError otherwise)."""
        return cls(
            mag_tdm=dft_magnitude(x_tdm),
            mag_mrdm=dft_magnitude(x_mrdm),
            energy_tdm=float(np.dot(x_tdm, x_tdm)),
            energy_mrdm=float(np.dot(x_mrdm, x_mrdm)),
        )

    @property
    def length(self) -> int:
        return self.mag_tdm.size

    def rows(self) -> Iterator[tuple[int, float, float]]:
        """Yield (k, |X_tdm[k]|, |X_mrdm[k]|) for k = 0..N-1."""
        for k in range(self.length):
            yield k, float(self.mag_tdm[k]), float(self.mag_mrdm[k])


def dft_magnitude(x: np.ndarray) -> np.ndarray:
    """|X[k]| for k = 0..N-1 of the unnormalized DFT of a real signal (DataError otherwise).

    The spectrum of a real signal is Hermitian, |X[N-k]| = |X[k]|, so the
    real-input FFT (``np.fft.rfft``) computes bins 0..N/2 and bin N-k is a
    copy of bin k: the result is mirror-symmetric bit for bit.
    """
    x = _real(x, "signal")
    if x.ndim != 1 or x.size < 1:
        raise ValueError("dft_magnitude expects a nonempty 1-D array")
    half = np.abs(np.fft.rfft(x))
    return np.concatenate((half, half[(x.size - 1) // 2 : 0 : -1]))


def compare_spectra(plan: RatePlan, system: FilterPair, payloads) -> SpectrumReport:
    """Build both signals for one frame and report their spectra and energies."""
    payloads = list(payloads)
    return SpectrumReport.from_signals(tdm_reference(plan, payloads), mux(plan, system, payloads).samples)


def random_payloads(plan: RatePlan, seed: int) -> list[TributaryPayload]:
    """One frame of uniform random digital payloads, reproducible by seed."""
    rng = np.random.default_rng(seed)
    out = []
    for ch, (lo, hi) in zip(plan.channels, plan.layout.bounds):
        nbits = (hi - lo) * plan.resolution
        bits = (rng.integers(0, 2, nbits) + 48).astype(np.uint8).tobytes().decode("ascii")
        out.append(TributaryPayload.from_bits(ch.id, bits))
    return out


def write_report_csv(report: SpectrumReport, fh: IO[str], *, seed: int, levels: int, wavelet: str) -> None:
    """Emit the report as CSV with the generation context in the header.

    Row k is ``k,|X_tdm[k]|,|X_mrdm[k]|``: k as an integer, the magnitudes
    with ``%.17g`` (:func:`~wavemux.wavelets.decimal_rows`). When both
    columns are mirror-symmetric bit for bit, as :func:`dft_magnitude`
    makes them, only rows 0..N/2 are formatted, and row k > N/2 repeats
    the text of row N-k; otherwise every row is formatted. Either way the
    bytes are those of one ``f"{k},{a:.17g},{b:.17g}\n"`` per row.
    """
    n = report.length
    mags = (report.mag_tdm, report.mag_mrdm)
    distinct = n // 2 + 1 if all(map(_mirrored, mags)) else n
    top = n - distinct  # rows 1..top are repeated, in reverse, as rows distinct..n-1
    fh.write(f"# seed={seed} N={n} J={levels} wavelet={wavelet}\n")
    fh.write("k,mag_tdm,mag_mrdm\n")
    kept = []  # (first row, text) of each block that holds rows of 1..top, in order
    start = 0
    for text in decimal_rows([m[:distinct] for m in mags]):
        pairs = text.splitlines(True)
        fh.write(_numbered(start, pairs))
        if max(start, 1) <= top:
            kept.append((start, text))
        start += len(pairs)
    for start, text in reversed(kept):
        # rows first..first+r-1 of the block are written as rows n-first-r+1..n-first, in reverse
        first = max(start, 1)
        pairs = text.splitlines(True)[first - start : top + 1 - start]
        fh.write(_numbered(n - first - len(pairs) + 1, pairs[::-1]))


def _mirrored(mags: np.ndarray) -> bool:
    """Whether mags[N-k] has the bits of mags[k] for every k = 1..N-1."""
    bits = mags.view(np.uint64)
    return bool(np.array_equal(bits[1:], bits[:0:-1]))


def _numbered(first: int, texts: list[str]) -> str:
    """Each of ``texts`` led by its row number, counting from ``first``, and a comma."""
    fields: list = [None] * (2 * len(texts))
    fields[::2] = range(first, first + len(texts))
    fields[1::2] = texts
    return ("%d,%s" * len(texts)) % tuple(fields)
