"""In-memory spans recorded by the benchmark around calls into each layer.

Spans are the ledger's only clock: ``wall_s`` is read off the ``build``
.. ``collect`` spans of a repetition, and every replayed layer time is
the duration of the span of that name.  They are kept in memory and
written out once, when the run ends (choosing-metrics guide, section 4).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    #: Records that crossed this boundary (reads, pairs, variants, tasks).
    records: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """A stack-structured span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, layer: str, records: int = 0) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, layer, time.perf_counter(), records=records)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def last(self, name: str) -> Span:
        """The most recent span called ``name``."""
        for span in reversed(self.spans):
            if span.name == name:
                return span
        raise KeyError(name)

    def self_seconds(self, span: Span) -> float:
        """Span duration minus the part its children cover."""
        return span.seconds - sum(s.seconds for s in self.spans if s.parent == span.id)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
