"""In-memory spans recorded around the benchmark's calls into gpbound.

A span holds a name, start, end, parent span and a trace id (one per instance).
The span name's first dotted part is the layer (``admm.solve`` -> ``admm``).
Spans stay in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    """Spans of one pass; the innermost open span is the parent of a new one."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _record(self, name: str, trace_id: str, start: float, end: float | None) -> dict:
        rec = {"id": len(self.spans), "name": name, "trace": trace_id,
               "parent": self._open[-1] if self._open else None,
               "start": start, "end": end}
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str, trace_id: str):
        rec = self._record(name, trace_id, perf_counter(), None)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def sweep_callback(self, solve_span: dict):
        """``solve(callback=...)`` hook: one child span per sweep of the open solve.

        The first span runs from solve entry to the first callback (row
        equilibration, normal-matrix Cholesky and sweep 1); each later one is the
        gap between consecutive callbacks.
        """
        last = [solve_span["start"]]

        def callback(iteration, state, record, primal, dual):
            now = perf_counter()
            name = "admm.pre_sweep" if iteration == 1 else "admm.sweep"
            self._record(name, solve_span["trace"], last[0], now)
            last[0] = now

        return callback


class NullTracer:
    """Stand-in for untraced passes: no spans, and ``solve`` gets no callback."""

    enabled = False

    def span(self, name: str, trace_id: str):
        return nullcontext({})

    def sweep_callback(self, solve_span):
        return None


def write_spans(path, tracers: list[Tracer]) -> None:
    """One entry per traced pass: its spans and the self time of each layer."""
    passes = [{"spans": t.spans, "self_s": self_time_by_layer(t.spans)} for t in tracers]
    with open(path, "w") as fh:
        json.dump({"passes": passes}, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    out = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= duration(s)
    return out


def self_time_by_layer(spans: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for sid, t in self_times(spans).items():
        layer = spans[sid]["name"].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + t
    return totals


def total(spans: list[dict], *names: str) -> float:
    return sum(duration(s) for s in spans if s["name"] in names)


def median_ms(spans: list[dict], name: str) -> float:
    ds = [duration(s) for s in spans if s["name"] == name]
    return 1e3 * statistics.median(ds) if ds else 0.0
