"""Orthonormal two-channel filter pairs.

Everything in this package is driven by a single real scaling (lowpass)
filter g of even length L. Its wavelet (highpass) companion is fixed by
the alternating flip

    h[n] = (-1)^n * g[L-1-n],

and the pair (g, h) forms a perfect-reconstruction orthonormal filter
bank whenever g satisfies

    sum_n g[n]              = sqrt(2)           (DC gain),
    sum_n g[n] * g[n+2k]    = delta(k)          (double-shift orthonormality).

Two consequences follow and are checked alongside: sum_n h[n] = 0 and
sum_n g[n] * h[n+2k] = 0 for every k.

Builtins cover the 2-tap Haar filter and the 4-tap Daubechies filter
(two vanishing moments); arbitrary user-supplied scaling coefficients
are accepted after numeric validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NotOrthonormal, OddLength, UnknownWavelet

__all__ = [
    "FilterPair",
    "ConstraintViolation",
    "make_wavelet_system",
    "derive_wavelet_filter",
    "check_orthonormality",
    "builtin_names",
    "parse_coefficients_csv",
    "format_coefficients_csv",
    "decimal_rows",
    "parse_decimals",
]

_SQRT2 = np.sqrt(2.0)

#: Validation tolerance for user-supplied coefficients.
DEFAULT_TOLERANCE = 1e-10


def derive_wavelet_filter(g: np.ndarray) -> np.ndarray:
    """Return the alternating-flip highpass companion of a lowpass filter.

    h[n] = (-1)^n * g[L-1-n]; raises OddLength unless len(g) is even.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 1 or g.size < 2 or g.size % 2:
        raise OddLength(f"scaling filter must be 1-D with even length >= 2, got shape {g.shape}")
    signs = np.where(np.arange(g.size) % 2 == 0, 1.0, -1.0)
    return signs * g[::-1]


@dataclass(frozen=True)
class FilterPair:
    """An orthonormal scaling/wavelet filter pair.

    Immutable after construction; instances may be shared freely between
    threads. Use :func:`make_wavelet_system` to obtain a validated pair.
    """

    name: str
    g: np.ndarray
    h: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float))

    @classmethod
    def from_scaling(cls, name: str, g: np.ndarray) -> "FilterPair":
        """Build a pair from scaling coefficients without validating them."""
        g = np.asarray(g, dtype=float)
        return cls(name=name, g=g, h=derive_wavelet_filter(g))

    def __len__(self) -> int:
        return self.g.size


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated filter constraint and the size of the violation."""

    constraint: str
    residual: float


def _haar() -> np.ndarray:
    return np.array([1.0, 1.0]) / _SQRT2


def _db4() -> np.ndarray:
    # 4-tap Daubechies filter: orthonormal with two vanishing moments.
    s3 = np.sqrt(3.0)
    return np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * _SQRT2)


_BUILTINS = {
    "haar": _haar,
    "db4": _db4,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def check_orthonormality(pair: FilterPair, tol: float = DEFAULT_TOLERANCE) -> list[ConstraintViolation]:
    """Validate every filter-pair constraint; return the violations.

    An empty report means the pair is an admissible orthonormal system
    within ``tol``. Each entry names the failed constraint and carries
    the numeric residual, so callers can present actionable diagnostics.
    """
    report: list[ConstraintViolation] = []
    g, h = pair.g, pair.h
    L = g.size
    if L < 2 or L % 2 or h.size != L:
        report.append(ConstraintViolation("even_length", float(abs(L % 2) or abs(h.size - L))))
        return report
    # NaN compares False against tol, so every check below would pass it; the
    # residual counts the non-finite coefficients of g (or of h, if it has more)
    non_finite = int(max(np.count_nonzero(~np.isfinite(g)), np.count_nonzero(~np.isfinite(h))))
    if non_finite:
        report.append(ConstraintViolation("finite_coefficients", float(non_finite)))
        return report

    r = abs(g.sum() - _SQRT2)
    if r > tol:
        report.append(ConstraintViolation("sum_rule", float(r)))

    # sum_n g[n] g[n+2k] = delta(k); shifts beyond L/2-1 vanish identically
    for k in range(L // 2):
        dot = float(np.dot(g[: L - 2 * k], g[2 * k :]))
        r = abs(dot - (1.0 if k == 0 else 0.0))
        if r > tol:
            report.append(ConstraintViolation(f"double_shift_orthonormality_k={k}", r))

    r = float(np.max(np.abs(h - derive_wavelet_filter(g))))
    if r > tol:
        report.append(ConstraintViolation("alternating_flip", r))

    r = abs(float(h.sum()))
    if r > tol:
        report.append(ConstraintViolation("wavelet_zero_sum", r))

    for k in range(-(L // 2) + 1, L // 2):
        if k >= 0:
            dot = float(np.dot(g[: L - 2 * k], h[2 * k :]))
        else:
            dot = float(np.dot(g[-2 * k :], h[: L + 2 * k]))
        if abs(dot) > tol:
            report.append(ConstraintViolation(f"cross_orthogonality_k={k}", abs(dot)))

    return report


def make_wavelet_system(spec: str | np.ndarray, name: str | None = None,
                        tol: float = DEFAULT_TOLERANCE) -> FilterPair:
    """Construct a validated filter pair from a builtin name or raw coefficients.

    ``spec`` is either a builtin name ("haar", "db4") or a sequence of
    scaling coefficients. Raw coefficients must have even length and pass
    the orthonormality checks within ``tol``.

    Raises UnknownWavelet, OddLength, or NotOrthonormal.
    """
    if isinstance(spec, str):
        key = spec.strip().lower()
        if key not in _BUILTINS:
            raise UnknownWavelet(f"no builtin wavelet {spec!r}; available: {', '.join(builtin_names())}")
        pair = FilterPair.from_scaling(name or key, _BUILTINS[key]())
    else:
        g = np.asarray(spec, dtype=float)
        pair = FilterPair.from_scaling(name or "custom", g)

    report = check_orthonormality(pair, tol=tol)
    if report:
        worst = max(report, key=lambda v: v.residual)
        raise NotOrthonormal(
            f"coefficients violate {len(report)} constraint(s); worst: "
            f"{worst.constraint} residual {worst.residual:.3e}"
        )
    return pair


# ------------------------------------------------------------ decimal text

#: Rows per ``%`` format in :func:`decimal_rows`. Writing 65,536 rows of
#: three columns to /dev/null (2 vCPUs, Python 3.11, NumPy 2.4, noisy
#: host) took 117-192 ms with one f-string per row and 89-129 ms in
#: blocks of 1,024 rows, for 1.0-1.1 MB of added peak RSS. One ``%`` over
#: the whole table took 97-139 ms but added 15 MB: it holds every value
#: as a Python float and the whole text at once.
_DECIMAL_BLOCK_ROWS = 1024


def decimal_rows(columns) -> Iterator[str]:
    """The decimal text of a table given as its columns, block by block.

    ``columns`` are equal-length 1-D sequences of numbers that slice, such
    as arrays or a ``range``; a block of rows is read as float64.

    Every value is written with ``%.17g``: 17 significant digits
    round-trip an IEEE-754 double through one correctly rounded
    conversion each way (Steele & White 1990; Clinger 1990), so
    :func:`parse_decimals` reads back the same bits. A comma separates
    the columns and a newline ends each row. Each block of
    ``_DECIMAL_BLOCK_ROWS`` rows is stacked and formatted by one ``%``,
    so no Python call is made per value and the text of one block is
    held at a time.
    """
    rows = len(columns[0])
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    block = np.empty((min(rows, _DECIMAL_BLOCK_ROWS), len(columns)))
    for start in range(0, rows, _DECIMAL_BLOCK_ROWS):
        stop = min(rows, start + _DECIMAL_BLOCK_ROWS)
        values = np.stack([c[start:stop] for c in columns], axis=1, out=block[: stop - start])
        yield (line * (stop - start)) % tuple(values.ravel().tolist())


def parse_decimals(text: str) -> np.ndarray:
    """Every decimal value in ``text``, as a 1-D float array; the inverse of :func:`decimal_rows`.

    Values are separated by commas and/or whitespace, and empty fields
    are skipped. One NumPy cast reads all the tokens; it accepts exactly
    what ``float()`` accepts (``nan``, ``-inf``, ``1e400`` as inf,
    ``1_0``). Raises ValueError naming a token it cannot read.
    """
    return np.array(text.replace(",", " ").split(), dtype=float)


def parse_coefficients_csv(line: str) -> np.ndarray:
    """Parse a line of decimal scaling coefficients.

    The syntax is that of :func:`parse_decimals`, so commas, whitespace
    and newlines all separate values. Raises ValueError for a token that
    is not a number and OddLength for a line without one.
    """
    g = parse_decimals(line)
    if not g.size:
        raise OddLength("empty coefficient line")
    return g


def format_coefficients_csv(g: np.ndarray) -> str:
    """Render coefficients as one CSV line with 17 significant digits.

    17 digits round-trip IEEE-754 doubles exactly, so
    parse_coefficients_csv(format_coefficients_csv(g)) == g.
    """
    # one row of len(g) one-value columns, without its newline
    return "".join(decimal_rows(np.reshape(g, (-1, 1))))[:-1]
