"""Spectral comparison against a plain time-division reference.

For the same payloads two signals of identical length N are formed: the
wavelet-multiplexed signal, and a reference built by simply concatenating
the channels' sample blocks in declaration order (classic TDM framing).
Because the coefficient frame is a permutation of the TDM samples and
synthesis is orthonormal, the two signals always carry the same energy;
their magnitude spectra, however, differ markedly and depend on the
chosen wavelet.

Reports use bin indices k = 0..N-1 with the unnormalized transform
X[k] = sum_n x[n] exp(-2 pi i k n / N), so Parseval reads
sum_k |X[k]|^2 / N = sum_n x[n]^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .framing import TributaryPayload, mux, _index_payloads, _payload_samples
from .rateplan import RatePlan, samples_per_frame, validate_plan
from .wavelets import FilterPair

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
        mag_tdm = np.asarray(self.mag_tdm, dtype=float)
        mag_mrdm = np.asarray(self.mag_mrdm, dtype=float)
        object.__setattr__(self, "mag_tdm", mag_tdm)
        object.__setattr__(self, "mag_mrdm", mag_mrdm)
        if mag_tdm.shape != mag_mrdm.shape or mag_tdm.ndim != 1:
            raise ValueError("both spectra must be 1-D arrays of identical length")

    @property
    def length(self) -> int:
        return self.mag_tdm.size

    def rows(self) -> Iterator[tuple[int, float, float]]:
        """Yield (k, |X_tdm[k]|, |X_mrdm[k]|) for k = 0..N-1."""
        for k in range(self.length):
            yield k, float(self.mag_tdm[k]), float(self.mag_mrdm[k])


def tdm_reference(plan: RatePlan, payloads) -> np.ndarray:
    """Concatenate the channels' sample blocks in declaration order.

    Digital payloads are quantized with the plan's resolution, so the
    reference is sample-for-sample comparable with the multiplexed
    signal. Total length is exactly N.
    """
    validate_plan(plan)
    by_id = _index_payloads(plan, payloads)
    blocks = [
        _payload_samples(by_id[ch.id], samples_per_frame(plan, ch), plan.resolution)
        for ch in plan.channels
    ]
    return np.concatenate(blocks)


def dft_magnitude(x: np.ndarray) -> np.ndarray:
    """|X[k]| for k = 0..N-1 of the unnormalized DFT."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("dft_magnitude expects a nonempty 1-D array")
    return np.abs(np.fft.fft(x))


def compare_spectra(plan: RatePlan, system: FilterPair, payloads) -> SpectrumReport:
    """Build both signals for one frame and report their spectra and energies."""
    payloads = list(payloads)
    x_mrdm = mux(plan, system, payloads).samples
    x_tdm = tdm_reference(plan, payloads)
    return SpectrumReport(
        mag_tdm=dft_magnitude(x_tdm),
        mag_mrdm=dft_magnitude(x_mrdm),
        energy_tdm=float(np.dot(x_tdm, x_tdm)),
        energy_mrdm=float(np.dot(x_mrdm, x_mrdm)),
    )


def random_payloads(plan: RatePlan, seed: int) -> list[TributaryPayload]:
    """One frame of uniform random digital payloads, reproducible by seed."""
    validate_plan(plan)
    rng = np.random.default_rng(seed)
    out = []
    for ch in plan.channels:
        nbits = samples_per_frame(plan, ch) * plan.resolution
        bits = (rng.integers(0, 2, nbits) + 48).astype(np.uint8).tobytes().decode("ascii")
        out.append(TributaryPayload.from_bits(ch.id, bits))
    return out


def write_report_csv(report: SpectrumReport, fh: IO[str], *, seed: int, levels: int, wavelet: str) -> None:
    """Emit the report as CSV with the generation context in the header."""
    fh.write(f"# seed={seed} N={report.length} J={levels} wavelet={wavelet}\n")
    fh.write("k,mag_tdm,mag_mrdm\n")
    for k, tdm, mrdm in report.rows():
        fh.write(f"{k},{tdm:.17g},{mrdm:.17g}\n")
