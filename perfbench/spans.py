"""In-memory spans recorded by the benchmark around calls into the
program's layers.  Spans stay in memory and are written once, when the
run ends; a layer's self time is its span's duration minus the part
of that interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    #: Request id: the case label or job id the span worked for.
    rid: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans on one thread, with implicit parenting."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rid: str, **attrs):
        """Time the ``with`` body as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans) + 1, name, time.perf_counter(), 0.0, parent, rid, attrs)
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, rid: str,
            parent: int | None = None, **attrs) -> Span:
        """Record a span measured elsewhere (derived from program fields)."""
        span = Span(len(self.spans) + 1, name, start, end, parent, rid, attrs)
        self.spans.append(span)
        return span

    def self_time(self, span: Span) -> float:
        """Duration minus the union of the children's intervals."""
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.spans
            if c.parent == span.span_id
        )
        covered, cursor = 0.0, span.start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.duration - covered

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + self.self_time(span)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(json.dumps(asdict(s)) + "\n" for s in self.spans))
