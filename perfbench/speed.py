"""Speed of the processor the benchmark runs on, sampled during a run.

On a shared host the speed one virtual processor delivers changes from
second to second, by up to a factor of two, as the load on the rest of the
host changes. Wall-clock timings taken minutes apart then differ by more
than the code changes the benchmark is meant to resolve.

While a run measures, :class:`SpeedProbe` interrupts the process every
``INTERVAL_S`` seconds (SIGALRM) and times a fixed probe kernel, none of
it in wavemux. A workload names the kernel that slows down most like it
does when the host gets slower. ``mixed`` does a little of each kind of
work the program does (JSON, a regular expression, struct packing,
sorting, float formatting, bit packing in NumPy); of the kernels tried it
tracked the interpreter-bound workloads best, while a tight loop or a
walk over a large list slowed down less than they did. ``mixed`` slowed
down more than the transform-bound workload, which ``bulk``, a NumPy
convolution over half a MiB, tracks better. The kernel runs once untimed
first, so that the caches the program has just filled do not slow the
timed call.

:meth:`SpeedProbe.normalize` turns a timed interval into the time it would
have taken at the reference speed, the speed at which one probe takes
``REFERENCE_NS``: the interval's length, less the probe handlers that ran
inside it, times the mean of ``REFERENCE_NS / probe time`` over the probes
taken during it (or, for an interval shorter than the sampling period,
just around it: within one period, and at least the nearest probe on
each side). Each kernel has its own reference time. The probe kernel does not call wavemux, so a change to
the program moves normalized timings as it moves raw ones.
"""

from __future__ import annotations

import bisect
import json
import re
import signal
import statistics
import struct
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

INTERVAL_S = 0.005

_DOCUMENT = {"plan": [64, 3, 64000, 8], "channels": {"data": 256000, "voice": [64000] * 4}, "name": "x" * 20}
_COUNT = re.compile(r"(\d+) of (\d+) samples")
_VALUES = np.random.default_rng(0).standard_normal(24)
_BITS = b"01" * 32
_SAMPLES = np.random.default_rng(1).standard_normal(1 << 16)
_TAPS = _SAMPLES[:8].copy()


def mixed_kernel() -> int:
    """A fixed piece of work, a little of each kind the program does."""
    text = json.dumps(_DOCUMENT)
    size = len(json.loads(text)["channels"])
    size += int(_COUNT.match("12 of 345 samples").group(1))
    size += len(struct.pack("<5d", 1.0, 2.0, 3.0, 4.0, 5.0))
    size += sorted([7, 3, 9, 1, 5, 2] * 4)[0]
    size += len(",".join(f"{v:.17g}" for v in _VALUES))
    packed = np.packbits(np.frombuffer(_BITS, dtype=np.uint8) - ord("0")).tobytes()
    return size + len(text) + len(packed)


def bulk_kernel() -> float:
    """A fixed piece of work: an 8-tap filter over every other of 64 Ki samples."""
    return float(np.convolve(_SAMPLES[::2], _TAPS)[0])


#: Kernel name: (kernel, its time in ns at the reference speed).
KERNELS = {"mixed": (mixed_kernel, 60_000), "bulk": (bulk_kernel, 130_000)}


class SpeedProbe:
    """Per sample, in the order they ran (ns): when the handler was entered,
    how long the timed probe took and how long the whole handler took."""

    def __init__(self, kernel: str = "mixed") -> None:
        self.kernel, self.reference_ns = KERNELS[kernel]
        self.starts = array("q")
        self.durations = array("q")
        self.spent = array("q")

    def _sample(self, signum, frame) -> None:
        entered = perf_counter_ns()
        self.kernel()  # brings the kernel back into caches the program has used since
        start = perf_counter_ns()
        self.kernel()
        end = perf_counter_ns()
        self.starts.append(entered)
        self.durations.append(end - start)
        self.spent.append(end - entered)

    @contextmanager
    def running(self):
        """Sample while the block runs; stop the timer on every way out.

        One sample is also taken on entry and one on exit, so that every
        interval timed inside the block has a sample on each side of it.
        """
        self.kernel()  # first call outside the timed samples
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            self._sample(signal.SIGALRM, None)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample(signal.SIGALRM, None)

    def normalize(self, start: int, end: int) -> tuple[int, float]:
        """(raw, normalized) ns of the interval, probes inside it left out."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        raw = end - start - sum(self.spent[first:last])
        if last - first < 2:
            # the probes within one period of the interval, and at least the
            # last one before it and the first one after it: a signal that
            # arrives during a long call into C is handled only when it returns
            margin = int(INTERVAL_S * 1e9)
            first = min(bisect.bisect_left(self.starts, start - margin), max(first - 1, 0))
            last = max(bisect.bisect_left(self.starts, end + margin), min(last + 1, len(self.starts)))
        speeds = [self.reference_ns / d for d in self.durations[first:last]]
        if not speeds:
            raise RuntimeError("no speed probe ran near a timed interval")
        return raw, raw * statistics.fmean(speeds)

    def summary(self) -> tuple[int, float]:
        """(probe count, median probe time in µs)."""
        return len(self.durations), statistics.median(self.durations) / 1e3
