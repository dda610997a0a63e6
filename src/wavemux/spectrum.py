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
sum_k |X[k]|^2 / N = sum_n x[n]^2.
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
    """|X[k]| for k = 0..N-1 of the unnormalized DFT of a real signal (DataError otherwise)."""
    x = _real(x, "signal")
    if x.ndim != 1 or x.size < 1:
        raise ValueError("dft_magnitude expects a nonempty 1-D array")
    return np.abs(np.fft.fft(x))


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
    """Emit the report as CSV with the generation context in the header."""
    fh.write(f"# seed={seed} N={report.length} J={levels} wavelet={wavelet}\n")
    fh.write("k,mag_tdm,mag_mrdm\n")
    # k goes through the same %.17g rule as the magnitudes: below 2^53 it is exact, digit for digit
    fh.writelines(decimal_rows((range(report.length), report.mag_tdm, report.mag_mrdm)))
