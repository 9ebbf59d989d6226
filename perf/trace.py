"""In-memory spans for the traced run.

The benchmark wraps each call into a layer of ``src/`` in a span
``{name, start, end, parent, op_id}``.  Spans stay in memory while the
run measures and are written out as JSON lines when it ends.  A layer's
*self time* is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int


class Tracer:
    """Collects spans; ``span()`` nests by call structure."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op_id = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.op_id)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the duration of its direct children
    (children run inside their parent and never overlap each other)."""
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals
