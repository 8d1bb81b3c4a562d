"""Structured event log: the EventBus and its JSONL sink.

Every observability-relevant moment of a run — pipeline/process
boundaries, stage and task completions, retries, journal restores,
quarantined records, cache statistics — is published to the context's
:class:`EventBus` as a flat JSON-serializable dict with a ``kind`` and a
wall-clock ``ts``.  With a trace directory configured, a
:class:`JsonlEventSink` subscribes and appends one line per event to
``events.jsonl``; ``gpf report`` rebuilds the whole run report from that
file alone.

``publish`` is a no-op (one attribute check) when nobody subscribes, so
an untraced run pays nothing.

The event vocabulary is closed: :data:`EVENT_SCHEMA` names every kind and
its required fields, and :func:`validate_events` is the contract test CI
runs against emitted logs.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Iterable

#: kind -> required payload fields (every event also carries "kind", "ts").
EVENT_SCHEMA: dict[str, tuple[str, ...]] = {
    "run.start": (),
    "run.end": ("elapsed",),
    "pipeline.start": ("pipeline", "processes"),
    "pipeline.end": ("pipeline", "elapsed", "executed", "skipped"),
    "process.start": ("process",),
    "process.end": ("process", "elapsed"),
    "process.failed": ("process", "error"),
    "process.skipped": ("process",),
    "stage.start": ("stage_id", "name"),
    "stage.end": (
        "stage_id",
        "name",
        "tasks",
        "run_time",
        "disk_blocked",
        "network_blocked",
        "gc_time",
        "shuffle_bytes_read",
        "shuffle_bytes_written",
        "records_read",
        "records_written",
    ),
    "task.end": (
        "stage_id",
        "stage_kind",
        "partition",
        "attempt",
        "run_time",
        "cpu_time",
        "disk_blocked",
        "network_blocked",
        "gc_time",
        "shuffle_bytes_read",
        "shuffle_bytes_written",
        "records_read",
        "records_written",
    ),
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
    "cache.stats": ("cache", "hits", "misses", "evictions", "entries"),
    "profile.sample": ("stacks", "samples"),
    "progress.stage": ("stage_id", "name", "tasks_done", "tasks_total"),
    "telemetry": ("counters", "gauges"),
}


class EventBus:
    """Publish/subscribe fan-out for run events.

    Subscribers are callables taking one event dict.  They run on the
    publishing thread; sinks serialize internally.
    """

    def __init__(self, clock: Callable[[], float] = time.time):
        self._clock = clock
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
        """Timestamp and deliver one event; free when nobody listens."""
        # Fast path: skip event construction when idle.  A subscriber
        # racing in here misses at most this one event, which the
        # subscribe() contract already allows.
        if not self._subs:  # gpf: unlocked-ok(idle fast path; subscribe races lose one event by contract)
            return
        event = {"kind": kind, "ts": self._clock(), **fields}
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


def read_events(path: str) -> list[dict]:
    """Parse an events.jsonl file; a torn trailing line (crash artifact)
    ends the log instead of raising."""
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                events.append(json.loads(raw))
            except json.JSONDecodeError:
                break
    return events


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
