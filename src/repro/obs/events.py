"""Structured event log: the EventBus and its JSONL sink.

Every observability-relevant moment of a run is published to the
context's :class:`EventBus` as a flat JSON-serializable dict with a
``kind`` and a ``ts``.  Two families share the log:

- **Spans** — the tracer publishes ``span.open`` when a pipeline,
  process, job, stage or task span starts and ``span.close`` (duration
  and every attribute) when it ends.  The stage span closes with the
  stage's ledger totals, so the span events are the run's timeline and
  its Table-4 accounting at once.
- **Point events** — retries, journal records and restores, evictions,
  quarantined records, chaos injections, profiler samples, the final
  ``telemetry`` snapshot, ``run.start``/``run.end``.

Every ``ts`` comes from one clock, :func:`now`: wall-clock seconds
advanced by the monotonic counter, so span durations never go negative
and every event lines up with every span.  With a trace directory
configured, a :class:`JsonlEventSink` subscribes and appends one line
per event to ``events.jsonl``; ``gpf report`` and ``trace.json`` are
both built from that file.  Several runs into one trace directory
append to one log; each reads only the last run (:func:`last_run`).

``publish`` is a no-op (one attribute check) when nobody subscribes,
and the tracer checks :attr:`EventBus.active` before building a span
event: an idle bus is the one off switch, so an untraced run builds no
event.  Any subscriber turns it on, a sink or not: ``gpf run``
subscribes a list and builds its report from it once the context has
published its closing ``telemetry`` and ``run.end``.

The event vocabulary is closed: :data:`EVENT_SCHEMA` names every kind and
its required fields, and :func:`validate_events` is the contract test CI
runs against emitted logs.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Iterable

_WALL0 = time.time()  # gpf: wallclock-ok(anchors the event clock to the epoch once)
_MONO0 = time.perf_counter()


def now() -> float:
    """The event clock: epoch seconds at import, advanced monotonically."""
    return _WALL0 + (time.perf_counter() - _MONO0)


#: kind -> required payload fields (every event also carries "kind", "ts").
EVENT_SCHEMA: dict[str, tuple[str, ...]] = {
    "run.start": (),
    "run.end": ("elapsed",),
    "span.open": ("span_id", "parent_id", "name", "span_kind", "attrs"),
    "span.close": (
        "span_id",
        "parent_id",
        "name",
        "span_kind",
        "dur",
        "pid",
        "tid",
        "attrs",
    ),
    "process.skipped": ("process",),
    "task.failure": ("stage_kind", "partition", "attempt", "error_type", "backoff"),
    "executor.incident": ("incident",),
    "block.evict": ("rdd_id", "partition"),
    "block.corrupt": ("where",),
    "journal.record": ("process",),
    "journal.restore": ("process",),
    "journal.stale": (),
    "journal.disabled": ("reason",),
    "quarantine.record": ("format", "reason"),
    "quarantine.degraded": ("reason",),
    "chaos.inject": ("site", "fault", "hit"),
    "block.spill_degraded": ("reason",),
    "health.transition": ("from", "to", "reason"),
    "job.shed": ("job_id", "priority", "retry_after"),
    "profile.sample": ("stacks", "samples"),
    "telemetry": ("counters", "gauges"),
}


class EventBus:
    """Publish/subscribe fan-out for run events.

    Subscribers are callables taking one event dict.  They run on the
    publishing thread; sinks serialize internally.
    """

    def __init__(self, clock: Callable[[], float] = now):
        #: Stamps every event's ``ts``; the tracer times spans with it.
        self.clock = clock
        self._subs: list[Callable[[dict], None]] = []
        self._lock = threading.Lock()

    @property
    def active(self) -> bool:
        """True when at least one subscriber would see a publish."""
        # Unsynchronized peek: list length is read atomically under the
        # GIL and a stale answer only mis-predicts whether the *next*
        # publish is observed — same race a locked read would have.
        return bool(self._subs)  # gpf: unlocked-ok(atomic len peek; staleness is inherent)

    def subscribe(self, fn: Callable[[dict], None]) -> None:
        with self._lock:
            if fn not in self._subs:
                self._subs.append(fn)

    def unsubscribe(self, fn: Callable[[dict], None]) -> None:
        with self._lock:
            if fn in self._subs:
                self._subs.remove(fn)

    def publish(self, kind: str, **fields) -> None:
        """Timestamp and deliver one event; free when nobody listens.

        A ``ts`` field overrides the stamp: a span event carries the
        span's own start or end.
        """
        # Fast path: skip event construction when idle.  A subscriber
        # racing in here misses at most this one event, which the
        # subscribe() contract already allows.
        if not self._subs:  # gpf: unlocked-ok(idle fast path; subscribe races lose one event by contract)
            return
        event = {"kind": kind, "ts": self.clock(), **fields}
        with self._lock:
            subs = list(self._subs)
        for sub in subs:
            sub(event)


class MemorySink:
    """List-backed sink for tests and in-process report rendering."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events: list[dict] = []

    def __call__(self, event: dict) -> None:
        with self._lock:
            self.events.append(event)


class JsonlEventSink:
    """Appends one JSON line per event; thread-safe, close()-able.

    A write error (disk full, revoked mount) degrades the sink to a
    no-op instead of propagating into the publishing thread — losing
    the event log must never kill the run it observes.
    """

    def __init__(self, path: str):
        self.path = path
        self.degraded = False
        self._lock = threading.Lock()
        self._fh = open(path, "a", encoding="utf-8")
        #: Byte offset where this sink's events begin: a reused file
        #: holds earlier segments before it.
        self.offset = self._fh.tell()

    def __call__(self, event: dict) -> None:
        line = json.dumps(event, default=_jsonable)
        with self._lock:
            if self._fh is None or self.degraded:
                return
            try:
                self._fh.write(line)
                self._fh.write("\n")
            except OSError:
                self.degraded = True

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.flush()
                    self._fh.close()
                except OSError:
                    self.degraded = True
                self._fh = None

    def __enter__(self) -> "JsonlEventSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _jsonable(value):
    """Last-resort JSON encoder: sets become lists, the rest reprs."""
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value) if isinstance(value, (set, frozenset)) else list(value)
    return repr(value)


def read_events(path: str, offset: int = 0) -> list[dict]:
    """Parse an events.jsonl file from byte ``offset``; a torn trailing
    line (crash artifact) ends the log instead of raising."""
    events: list[dict] = []
    with open(path, "rb") as fh:
        fh.seek(offset)
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                events.append(json.loads(raw))
            except ValueError:  # JSONDecodeError, or a torn UTF-8 sequence
                break
    return events


def last_run(events: list[dict]) -> list[dict]:
    """The events of the last run in a log several runs appended to: from
    its last ``run.start`` on (the whole log when it has none)."""
    starts = [k for k, event in enumerate(events) if event.get("kind") == "run.start"]
    return events[starts[-1] if starts else 0 :]


def validate_event(event: dict) -> list[str]:
    """Problems with one event against :data:`EVENT_SCHEMA` (empty = valid)."""
    problems: list[str] = []
    kind = event.get("kind")
    if not isinstance(kind, str):
        return [f"event has no string 'kind': {event!r}"]
    if not isinstance(event.get("ts"), (int, float)):
        problems.append(f"{kind}: missing numeric 'ts'")
    required = EVENT_SCHEMA.get(kind)
    if required is None:
        problems.append(f"unknown event kind {kind!r}")
        return problems
    for field in required:
        if field not in event:
            problems.append(f"{kind}: missing required field {field!r}")
    return problems


def validate_events(events: Iterable[dict]) -> list[str]:
    """Validate a whole log; returns every problem found."""
    problems: list[str] = []
    for i, event in enumerate(events):
        for problem in validate_event(event):
            problems.append(f"event {i}: {problem}")
    return problems
