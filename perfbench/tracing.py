"""In-memory spans recorded around calls into the s3and layers.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of the span that was open when it started, and the id of the query it
belongs to (``-1`` for build and load work). Spans stay in memory while the
benchmark runs and are written out once, after the measured work is done.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    name: str
    query_id: int
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, query_id: int = -1) -> Iterator[Span]:
        parent = self._open[-1] if self._open else -1
        record = Span(name, query_id, parent, 0.0)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self, scale: list[float]) -> dict[str, list[float]]:
        """Seconds per span, grouped by name, minus the time its children cover.

        Children of one span run one after another on one thread, so the
        covered time is the sum of their durations. Each span's self time is
        multiplied by its entry in ``scale``.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        out: dict[str, list[float]] = defaultdict(list)
        for s, c, f in zip(self.spans, covered, scale):
            out[s.name].append((s.duration - c) * f)
        return dict(out)

    def write(self, path: Path, header: dict) -> None:
        doc = {
            **header,
            "spans": [
                [s.name, s.query_id, s.parent, s.start, s.end] for s in self.spans
            ],
            "span_fields": ["name", "query_id", "parent", "start", "end"],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
