"""In-memory spans around the benchmark's calls into each obliquecone layer.

A span records its name, start, end, the index of the span that encloses it
and the operation it belongs to.  Span names are `<layer>.<call>`, where the
layer is the obliquecone module the call enters (legendre, exponent, barrier,
grids, solver, holder, verify, cli).  Spans stay in memory until the run
ends; `summary` reduces them to per-name totals and per-layer self time.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class NullTracer:
    """Untraced runs: `span` costs one method call and records nothing."""

    op = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def totals(self, name: str) -> tuple[float, int]:
        """Summed duration in seconds and count of the spans called `name`."""
        durations = [s["end"] - s["start"] for s in self.spans if s["name"] == name]
        return sum(durations), len(durations)

    def mean(self, name: str) -> float:
        total, count = self.totals(name)
        if count == 0:
            raise KeyError(f"no span named {name!r} was recorded")
        return total / count

    def summary(self) -> dict:
        """Per-name totals and per-layer self time (duration minus child spans)."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        by_name: dict[str, dict] = {}
        self_by_layer: dict[str, float] = defaultdict(float)
        for idx, s in enumerate(self.spans):
            duration = s["end"] - s["start"]
            entry = by_name.setdefault(s["name"], {"count": 0, "total_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += duration
            self_by_layer[s["name"].split(".")[0]] += duration - child_time[idx]
        return {"by_name": by_name, "self_s_by_layer": dict(self_by_layer)}


def span_cost_s(count: int = 10000) -> float:
    """Seconds one recorded span adds over an untraced one, from `count` empty spans."""
    elapsed = []
    for tracer in (NullTracer(), Tracer()):
        start = time.perf_counter()
        for _ in range(count):
            with tracer.span("trace.empty"):
                pass
        elapsed.append(time.perf_counter() - start)
    return (elapsed[1] - elapsed[0]) / count
