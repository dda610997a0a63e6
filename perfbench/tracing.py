"""Spans around calls into wavemux layers, placed from outside the package.

A traced run swaps public names in the wavemux modules for wrappers that
record one span per call. Each name is replaced where its callers look it
up at call time (``framing.mux`` finds ``allocate_bands`` in the
``wavemux.framing`` namespace, not in ``wavemux.rateplan``), so no file of
the package is edited. Spans are named after the layer that owns the
wrapped function, wherever it is looked up from.

Spans stay in memory as tuples and are written out once, after the run.
"""

from __future__ import annotations

import importlib
import json
import re
from contextlib import contextmanager
from time import perf_counter_ns

#: (module, attribute, span name). The attribute is replaced in that module
#: only; a name that is missing there is skipped and reports zero calls.
WRAPPED_NAMES = (
    ("wavemux.framing", "validate_plan", "rateplan.validate_plan"),
    ("wavemux.framing", "allocate_bands", "rateplan.allocate_bands"),
    ("wavemux.framing", "plan_digest", "rateplan.plan_digest"),
    ("wavemux.framing", "assemble_frame", "framing.assemble_frame"),
    ("wavemux.framing", "disassemble_frame", "framing.disassemble_frame"),
    ("wavemux.framing", "quantize_words", "framing.quantize_words"),
    ("wavemux.framing", "dequantize_samples", "framing.dequantize_samples"),
    ("wavemux.framing", "synthesize", "mra.synthesize"),
    ("wavemux.framing", "analyze", "mra.analyze"),
    ("wavemux.rateplan", "validate_plan", "rateplan.validate_plan"),
    ("wavemux.cli", "mux", "framing.mux"),
    ("wavemux.cli", "demux", "framing.demux"),
    ("wavemux.cli", "random_payloads", "spectrum.random_payloads"),
    ("wavemux.cli", "tdm_reference", "spectrum.tdm_reference"),
    ("wavemux.cli", "dft_magnitude", "spectrum.dft_magnitude"),
    ("wavemux.cli", "write_report_csv", "spectrum.write_report_csv"),
    ("wavemux.spectrum", "mux", "framing.mux"),
    ("wavemux.spectrum", "tdm_reference", "spectrum.tdm_reference"),
)

#: Root span of one benchmark operation; its self time is the benchmark's
#: own code between library calls.
OP_SPAN = "op"

_OFFGRID_COUNT = re.compile(r"(\d+) of \d+ samples off-grid")


def call_direct(name, fn, *args, **kwargs):
    """Untraced stand-in for :meth:`Tracer.span`."""
    return fn(*args, **kwargs)


class Tracer:
    """Records (name, start_ns, end_ns, parent index, op id) per call."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op_id = -1
        self.offgrid_samples = 0
        self._stack: list[int] = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def _wrapper(self, name, original):
        if name != "framing.dequantize_samples":
            return lambda *args, **kwargs: self.span(name, original, *args, **kwargs)

        from wavemux.errors import OffGrid

        def dequantize(*args, **kwargs):
            try:
                return self.span(name, original, *args, **kwargs)
            except OffGrid as exc:
                match = _OFFGRID_COUNT.match(str(exc))
                self.offgrid_samples += int(match.group(1)) if match else 1
                raise

        return dequantize

    @contextmanager
    def installed(self):
        """Replace every name in WRAPPED_NAMES; restore them on exit."""
        patched = []
        try:
            for module_name, attr, name in WRAPPED_NAMES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                patched.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Per span name: (call count, total self time in ns).

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans add up exactly to the
        durations of the root spans.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, list[int]] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            entry = totals.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += end - start - children
        return {name: (calls, ns) for name, (calls, ns) in totals.items()}

    def write_jsonl(self, path) -> None:
        names = ("name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(names, span))) + "\n")
