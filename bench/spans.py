"""In-memory spans around the calls the benchmark makes into each layer.

A span holds its name, start and end (``perf_counter_ns``), the id of the
span it was opened inside, and the run id shared by every span of one
benchmark run.  Spans stay in memory; the caller writes them out when the
run ends.  A disabled tracer hands out one shared no-op span, so untraced
code keeps the same shape at nearly no cost.
"""

from __future__ import annotations

import statistics
import time


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.id = len(tracer.spans)
        self.parent = tracer._open[-1] if tracer._open else None
        tracer.spans.append(self)
        tracer._open.append(self.id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter_ns()
        self.tracer._open.pop()
        return False


class _NoSpan:
    """Stand-in for a span while tracing is off; ``name`` may be set freely."""

    name = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    def __init__(self, run_id: str, source: str, enabled: bool = True):
        self.run_id = run_id
        self.source = source
        self.enabled = enabled
        self.spans: list[_Span] = []
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def seconds(self, name: str) -> list[float]:
        """Durations of every closed span called ``name``."""
        return [(s.end - s.start) / 1e9 for s in self.spans if s.name == name]

    def median(self, name: str) -> float:
        return statistics.median(self.seconds(name))

    def export(self) -> list[dict]:
        return [
            {
                "run": self.run_id,
                "id": f"{self.source}:{s.id}",
                "parent": None if s.parent is None else f"{self.source}:{s.parent}",
                "name": s.name,
                "start_ns": s.start,
                "end_ns": s.end,
            }
            for s in self.spans
        ]
