"""Orthonormal two-channel filter pairs.

Everything in this package is driven by a single real scaling (lowpass)
filter g of even length L. Its wavelet (highpass) companion is fixed by
the alternating flip

    h[n] = (-1)^n * g[L-1-n],

and the pair (g, h) forms a perfect-reconstruction orthonormal filter
bank whenever g satisfies

    sum_n g[n]              = sqrt(2)           (DC gain),
    sum_n g[n] * g[n+2k]    = delta(k)          (double-shift orthonormality).

A :class:`FilterPair` holds g only and derives h from it, so a pair
cannot hold an h that is not the flip of its g, nor a g of odd length:
both are settled when the pair is built. :func:`check_orthonormality`
therefore checks g alone: that its taps are finite, the two conditions
above, and sum_n h[n] = 0 (the alternating sum of g, which those two
conditions force to zero). It does not check the cross-orthogonality
sum_n g[n] * h[n+2k] = 0: for the flip of any even-length g its terms
cancel in pairs, so it holds by construction, to rounding.

Builtins cover the 2-tap Haar filter and the 4-tap Daubechies filter
(two vanishing moments); arbitrary user-supplied scaling coefficients
are accepted after numeric validation.

The transform does not run the taps themselves but the pair's
paraunitary lattice: a 2 x 2 first stage and one rotation-like stage per
further tap pair, compiled once per pair (``FilterPair._lattice``, see
:func:`_compile_lattice`; :func:`make_wavelet_system` compiles it as part
of validation). The lattice is exactly paraunitary by construction, so
a user filter that passes :func:`check_orthonormality` only to its 1e-10
tolerance runs as the nearest exactly paraunitary lattice, not as its
own taps: the line differs from the direct form by about the size of
the residuals, and analysis still inverts synthesis to rounding. A pair
whose lattice misses it by more than 1e-8 is refused with
NotOrthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

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
#: Largest miss between a pair and its compiled lattice; see :func:`_compile_lattice`.
_LATTICE_TOLERANCE = 1e-8


def derive_wavelet_filter(g: np.ndarray) -> np.ndarray:
    """Return the alternating-flip highpass companion of a lowpass filter.

    h[n] = (-1)^n * g[L-1-n]; raises OddLength unless len(g) is even.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 1 or g.size < 2 or g.size % 2:
        raise OddLength(f"scaling filter must be 1-D with even length >= 2, got shape {g.shape}")
    signs = np.where(np.arange(g.size) % 2 == 0, 1.0, -1.0)
    return signs * g[::-1]


@dataclass(frozen=True, eq=False)
class FilterPair:
    """A scaling filter g and the wavelet filter h derived from it.

    ``FilterPair(name, g)`` takes g only and sets ``h`` to its alternating
    flip (:func:`derive_wavelet_filter`), so a g of odd length or shorter
    than 2 raises OddLength here. Nothing else is checked: use
    :func:`make_wavelet_system` to obtain a validated pair. Immutable
    after construction; instances may be shared freely between threads.
    Pairs compare and hash by identity, so a pair can key a dict; a
    comparison of their taps would have no single truth value.
    """

    name: str
    g: np.ndarray
    h: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", derive_wavelet_filter(g))

    def __len__(self) -> int:
        return self.g.size

    @cached_property
    def _lattice(self) -> "_Lattice":
        """The pair compiled into its paraunitary lattice, once; see :func:`_compile_lattice`."""
        return _compile_lattice(self.g, self.h)


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
    """Validate the pair's scaling filter g; return the violations.

    The constraints, by the names the report gives them:

    - ``finite_coefficients``: the residual counts the taps of g that are
      NaN or infinite; when there are any, nothing else is checked;
    - ``sum_rule``: sum_n g[n] = sqrt(2);
    - ``double_shift_orthonormality_k=<k>``: sum_n g[n] g[n+2k] = delta(k),
      for k = 0 .. L/2 - 1;
    - ``wavelet_zero_sum``: sum_n h[n] = 0.

    The pair's construction has made g of even length and h its
    alternating flip, so neither is checked here, and neither is the
    cross-orthogonality sum_n g[n] h[n+2k] = 0: for the flip of an
    even-length g its terms cancel in pairs, for every g.

    An empty report means the pair is an admissible orthonormal system
    within ``tol``. Each entry names the failed constraint and carries
    the numeric residual, so callers can present actionable diagnostics.
    """
    report: list[ConstraintViolation] = []
    g, L = pair.g, len(pair)
    # NaN compares False against tol, so every check below would pass it
    non_finite = int(np.count_nonzero(~np.isfinite(g)))
    if non_finite:
        return [ConstraintViolation("finite_coefficients", float(non_finite))]

    r = abs(g.sum() - _SQRT2)
    if r > tol:
        report.append(ConstraintViolation("sum_rule", float(r)))

    # sum_n g[n] g[n+2k] = delta(k); shifts beyond L/2-1 vanish identically
    for k in range(L // 2):
        dot = float(np.dot(g[: L - 2 * k], g[2 * k :]))
        r = abs(dot - (1.0 if k == 0 else 0.0))
        if r > tol:
            report.append(ConstraintViolation(f"double_shift_orthonormality_k={k}", r))

    r = abs(float(pair.h.sum()))
    if r > tol:
        report.append(ConstraintViolation("wavelet_zero_sum", r))
    return report


# ------------------------------------------------------- paraunitary lattice

class _Lattice(NamedTuple):
    """A filter pair as the stages of its paraunitary lattice, in analysis order.

    Stage 0 maps the even and odd samples (x[2k], x[2k+1]) of a level's
    input to two channels by ``first``, the read-only 2 x 2 float64 array
    [[a, b], [c, d]], built once per pair, so that the transform applies
    it as one matrix product; every scale of the later stages is folded
    into it.
    Each later stage ``(t, delayed)`` advances channel ``delayed`` by one
    sample, calls the channels X and Y in order, and forms

        X' = t X + Y,        Y' = X - t Y,

    with |t| <= 1. The last stage's channels are the approximation and the
    detail. Synthesis runs the stages backwards, each its own inverse up
    to a scale, and ends with the transpose of ``first``.
    """

    first: np.ndarray
    stages: tuple[tuple[float, int], ...]


def _lattice_filters(lattice: _Lattice) -> tuple[np.ndarray, np.ndarray]:
    """The (g, h) that a lattice computes, multiplied out stage by stage."""
    H = lattice.first.reshape(1, 2, 2)
    for t, delayed in lattice.stages:
        grown = np.zeros((len(H) + 1, 2, 2))
        grown[:-1] = H
        grown[:, delayed] = np.roll(grown[:, delayed], 1, axis=0)  # advance that channel
        H = np.array([[t, 1.0], [1.0, -t]]) @ grown
    return H[:, 0].reshape(-1), H[:, 1].reshape(-1)


def _compile_lattice(g: np.ndarray, h: np.ndarray) -> _Lattice:
    """Factor a paraunitary pair into its lattice (Vaidyanathan & Hoang, 1988).

    The polyphase matrix H(z) = sum_m [[g[2m], g[2m+1]], [h[2m], h[2m+1]]] z^m
    of a pair of length 2K is a constant 2 x 2 matrix followed by K - 1
    stages, each a one-sample advance of one row and a scaled reflection
    [[t, 1], [1, -t]]. One stage is peeled per step, the last first. Its
    reflection maps the row space onto two rows: one parallel to the
    columns of the rank-one top coefficient H[K-1], which loses its
    constant term and is the advanced one, and one orthogonal to them,
    which loses its top term. The direction comes from whichever end,
    H[K-1] or H[0], is larger (for the bottom end, orthogonal to its
    columns), and t from the larger entry of its larger column, so that
    |t| <= 1 (the reflection swaps the rows' roles when it must). What
    remains is the first stage, with the scales of the others folded in;
    it is replaced by the nearest scaled orthogonal matrix, which moves a
    pair that is orthonormal to rounding by an ulp at most, and one that
    passes ``check_orthonormality`` only within its tolerance to the
    exactly paraunitary lattice nearest to it.

    ``g`` and ``h`` are a pair's filters, of one even length. Raises
    NotOrthonormal for a tap that is not finite, and when the
    multiplied-out lattice misses g or h by more than
    ``_LATTICE_TOLERANCE``, as for a pair that is not paraunitary at all.
    """
    if not np.isfinite([g, h]).all():
        raise NotOrthonormal("no lattice for filters with taps that are not finite")
    H = np.stack([g.reshape(-1, 2), h.reshape(-1, 2)], axis=1)  # H[m] = [[g2m, g2m+1], [h2m, h2m+1]]
    peeled = []
    while len(H) > 1:
        top, bottom = H[-1], H[0]
        if np.abs(top).sum() >= np.abs(bottom).sum():
            p = top[:, np.argmax(np.abs(top).sum(axis=0))]
        else:
            r = bottom[:, np.argmax(np.abs(bottom).sum(axis=0))]
            p = np.array([-r[1], r[0]])
        if not p.any():  # both ends vanish, as for a filter padded with zeros at both ends: any split does
            p = np.array([0.0, 1.0])
        t, delayed = (p[0] / p[1], 0) if abs(p[0]) <= abs(p[1]) else (-p[1] / p[0], 1)
        H = np.array([[t, 1.0], [1.0, -t]]) @ H / (1.0 + t * t)
        # the advanced row drops its vanished constant term, the other its vanished top
        H = np.stack([H[1:, r] if r == delayed else H[:-1, r] for r in (0, 1)], axis=1)
        peeled.append((float(t), delayed))
    stages = tuple(reversed(peeled))
    # the nearest scale * Q, Q orthogonal with the sign of det H[0]: the
    # average of H[0] and its signed adjugate, [[a, b], [-b, a]] for a
    # rotation and [[a, b], [b, -a]] for a reflection, rescaled
    (a, b), (c, d) = H[0].tolist()
    sign = 1.0 if a * d - b * c >= 0 else -1.0
    a, b = (a + sign * d) / 2, (b - sign * c) / 2
    norm = float(np.hypot(a, b))
    if not norm:
        raise NotOrthonormal("filters are not paraunitary: their lattice has a zero first stage")
    scale = float(np.prod([1.0 + t * t for t, _ in stages])) ** -0.5 / norm
    first = scale * np.array([[a, b], [-sign * b, sign * a]])
    first.flags.writeable = False
    lattice = _Lattice(first, stages)
    rebuilt_g, rebuilt_h = _lattice_filters(lattice)
    miss = max(float(np.max(np.abs(rebuilt_g - g))), float(np.max(np.abs(rebuilt_h - h))))
    if not miss <= _LATTICE_TOLERANCE:
        raise NotOrthonormal(f"filters are not paraunitary: their lattice misses them by {miss:.3e}")
    return lattice


def make_wavelet_system(spec: str | np.ndarray, name: str | None = None) -> FilterPair:
    """Construct a validated filter pair from a builtin name or raw coefficients.

    ``spec`` is either a builtin name ("haar", "db4") or a sequence of
    scaling coefficients. Raw coefficients must have even length and pass
    the orthonormality checks within ``DEFAULT_TOLERANCE``.

    The pair's lattice (:func:`_compile_lattice`) is compiled here too.

    Raises UnknownWavelet, OddLength, or NotOrthonormal.
    """
    if isinstance(spec, str):
        key = spec.strip().lower()
        if key not in _BUILTINS:
            raise UnknownWavelet(f"no builtin wavelet {spec!r}; available: {', '.join(builtin_names())}")
        pair = FilterPair(name or key, _BUILTINS[key]())
    else:
        pair = FilterPair(name or "custom", spec)

    report = check_orthonormality(pair)
    if report:
        worst = max(report, key=lambda v: v.residual)
        raise NotOrthonormal(
            f"coefficients violate {len(report)} constraint(s); worst: "
            f"{worst.constraint} residual {worst.residual:.3e}"
        )
    pair._lattice  # compiled here, so that a pair the lattice cannot run is refused here
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
