"""Spans around capcycle's layer boundaries, recorded from outside the program.

Each layer's public functions are wrapped and patched under the module
attribute its caller looks up (``capcycle.simulator.run_phase`` is what
``run_protocol`` calls, ``capcycle.effmap.run_protocol`` is what
``build_grid`` calls, and so on).  Spans stay in memory as
``(name, start, end, parent)`` and are written out when the run ends.  A
layer's self time is its spans' duration minus the time their child spans
cover; per-layer metrics are derived from those self times and from counts
read off the wrapped calls' arguments and results.

A patch whose attribute no longer exists is skipped, and every metric that
needs it is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

MODE_FIXED = 2
"""``run_phase``'s mode value for fixed-length (rest) phases."""
_MODE_ARG = 10
_STEPS_RESULT = 2


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Nested spans of one operation, kept in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int, counts: dict | None = None) -> None:
        self.spans[idx].end = self.clock()
        if counts:
            self.spans[idx].counts = counts
        self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s.name] = out.get(s.name, 0.0) + t
        return out

    def totals(self) -> dict[str, float]:
        """Summed counts per ``<span name>.<count>`` and calls per span name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name + ".calls"] = out.get(s.name + ".calls", 0) + 1
            for key, value in s.counts.items():
                out[s.name + "." + key] = out.get(s.name + "." + key, 0) + value
        return out

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.counts] for s in self.spans]


# --- what each wrapped call counts ----------------------------------------


def _kernel_name(args) -> str:
    return "kernels.fixed" if args[_MODE_ARG] == MODE_FIXED else "kernels.ramp"


def _kernel_counts(args, result) -> dict:
    return {"steps": result[_STEPS_RESULT]}


def _samples(args, result) -> dict:
    return {"samples": len(result.t)}


def _bytes_at(arg_index: int):
    def counts(args, result) -> dict:
        return {"bytes": os.path.getsize(args[arg_index])}

    return counts


def _length(key: str):
    def counts(args, result) -> dict:
        return {key: len(result)}

    return counts


def _defined_cells(args, result) -> dict:
    return {"cells": int((result.eta == result.eta).sum())}  # NaN marks undefined


# (module, attribute its caller looks up, span name, counter)
PATCHES = [
    ("capcycle.simulator", "run_phase", _kernel_name, _kernel_counts),
    ("capcycle.cli", "run_protocol", "simulator.run_protocol", _samples),
    ("capcycle.effmap", "run_protocol", "simulator.run_protocol", _samples),
    ("capcycle.simulator", "quantize_trace", "simulator.quantize", None),
    ("capcycle.cli", "write_trace_csv", "trace.write", _bytes_at(1)),
    ("capcycle.cli", "write_sidecar_csv", "trace.sidecar", None),
    ("capcycle.cli", "read_trace_csv", "trace.read", _bytes_at(0)),
    ("capcycle.cli", "analyze_trace", "analyzer.analyze_trace", None),
    ("capcycle.effmap", "analyze_trace", "analyzer.analyze_trace", None),
    ("capcycle.analyzer", "segment", "analyzer.segment", _length("segments")),
    ("capcycle.analyzer", "cycle_metrics", "analyzer.cycle_metrics", _length("cycles")),
    ("capcycle.analyzer", "identify_resistance", "analyzer.identify", None),
    ("capcycle.analyzer", "identify_capacitance", "analyzer.identify", None),
    ("capcycle.analyzer", "detect_steady", "analyzer.detect_steady", None),
    ("capcycle.cli", "build_grid", "effmap.build_grid", _defined_cells),
    ("capcycle.cli", "render_map", "effmap.render_map", None),
    ("capcycle.cli", "fit_self_discharge", "effmap.fit_self_discharge", None),
]

CLI_SPAN = "cli.main"
"""Span the worker opens around each ``capcycle.cli.main`` call."""


def _wrap(tracer: Tracer, fn, name, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name(args) if callable(name) else name)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                counts = counter(args, result)
            return result
        finally:
            tracer.end(idx, counts)

    return traced


class Patches:
    """Installs the wrappers for one traced operation and restores them after."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        for module_name, attr, name, counter in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, _wrap(self.tracer, fn, name, counter))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


# --- per-layer metrics ------------------------------------------------------

# name -> (unit, spans it reads, what it reads: "self" time, a count summed
# over the spans, or a count per second of their self time)
_KERNELS = ("kernels.fixed", "kernels.ramp")
LAYER_METRICS = {
    "kernels.fixed_s": ("s", ("kernels.fixed",), "self"),
    "kernels.fixed_steps": ("count", ("kernels.fixed",), "steps"),
    "kernels.fixed_steps_per_s": ("1/s", ("kernels.fixed",), "steps/s"),
    "kernels.ramp_s": ("s", ("kernels.ramp",), "self"),
    "kernels.ramp_steps": ("count", ("kernels.ramp",), "steps"),
    "kernels.ramp_steps_per_s": ("1/s", ("kernels.ramp",), "steps/s"),
    "kernels.calls": ("count", _KERNELS, "calls"),
    "simulator.run_protocol_s": ("s", ("simulator.run_protocol",), "self"),
    "simulator.run_protocol_calls": ("count", ("simulator.run_protocol",), "calls"),
    "simulator.samples": ("count", ("simulator.run_protocol",), "samples"),
    "simulator.quantize_s": ("s", ("simulator.quantize",), "self"),
    "trace.write_s": ("s", ("trace.write",), "self"),
    "trace.write_bytes": ("B", ("trace.write",), "bytes"),
    "trace.sidecar_s": ("s", ("trace.sidecar",), "self"),
    "trace.read_s": ("s", ("trace.read",), "self"),
    "trace.read_bytes": ("B", ("trace.read",), "bytes"),
    "analyzer.segment_s": ("s", ("analyzer.segment",), "self"),
    "analyzer.segments": ("count", ("analyzer.segment",), "segments"),
    "analyzer.analyze_trace_s": ("s", ("analyzer.analyze_trace",), "self"),
    "analyzer.cycle_metrics_s": ("s", ("analyzer.cycle_metrics",), "self"),
    "analyzer.identify_s": ("s", ("analyzer.identify",), "self"),
    "analyzer.detect_steady_s": ("s", ("analyzer.detect_steady",), "self"),
    "analyzer.cycles": ("count", ("analyzer.cycle_metrics",), "cycles"),
    "effmap.build_grid_s": ("s", ("effmap.build_grid",), "self"),
    "effmap.cells": ("count", ("effmap.build_grid",), "cells"),
    "effmap.render_map_s": ("s", ("effmap.render_map",), "self"),
    "effmap.fit_self_discharge_s": ("s", ("effmap.fit_self_discharge",), "self"),
    "cli.self_s": ("s", (CLI_SPAN,), "self"),
}


def _missing_spans(missing: set[str]) -> set[str]:
    out = set()
    for module, attr, name, _ in PATCHES:
        if f"{module}.{attr}" in missing:
            out.update(_KERNELS if callable(name) else (name,))
    return out


def layer_values(tracer: Tracer, missing: set[str]) -> dict[str, float | None]:
    """Per-layer metric values of one traced operation (None when missing)."""
    self_s = tracer.self_times()
    counts = tracer.totals()
    gone = _missing_spans(missing)
    out: dict[str, float | None] = {}
    for name, (unit, spans, what) in LAYER_METRICS.items():
        seconds = sum(self_s.get(n, 0.0) for n in spans)
        total = sum(counts.get(f"{n}.{what.removesuffix('/s')}", 0) for n in spans)
        if gone.intersection(spans):
            out[name] = None
        elif what == "self":
            out[name] = seconds
        elif what.endswith("/s"):
            out[name] = total / seconds if seconds else 0.0
        else:
            out[name] = total
    return out
