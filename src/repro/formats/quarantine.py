"""Corrupt-input quarantine: count and keep bad records instead of dying.

Tucci et al.'s evaluation of Spark genomics pipelines found that bad
inputs, not kernel speed, dominate real deployments — one malformed FASTQ
quad in a 500 GB input should not kill a multi-hour run.  Every text
parser in :mod:`repro.formats` therefore takes a ``malformed`` policy:

- ``"fail"`` — raise on the first bad record (the historical behaviour,
  and still the default);
- ``"drop"`` — silently skip bad records;
- ``"quarantine"`` — route bad records to a :class:`QuarantineSink`,
  which counts them per format and keeps a bounded sample of the raw
  text for inspection.

A sink is thread-safe so per-partition tasks of the thread executor can
share the context-wide sink (``GPFContext.quarantine``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

#: Accepted values of every parser's ``malformed=`` parameter.
MALFORMED_POLICIES = ("fail", "drop", "quarantine")

#: Longest raw-record text kept per quarantined sample.
MAX_RAW_CHARS = 512


def check_policy(malformed: str) -> str:
    if malformed not in MALFORMED_POLICIES:
        raise ValueError(
            f"unknown malformed policy {malformed!r}; "
            f"options: {', '.join(MALFORMED_POLICIES)}"
        )
    return malformed


@dataclass(frozen=True)
class QuarantinedRecord:
    """One bad input record: where it came from and why it was rejected."""

    kind: str  # "fastq" | "sam" | "vcf" | ...
    reason: str
    raw: str  # offending text, truncated to MAX_RAW_CHARS


class QuarantineSink:
    """Counted, bounded-sample collector of malformed input records.

    A failure while *retaining* a record (the sample/persistence path —
    e.g. a disk-full event log, or an injected ``quarantine.sink``
    chaos fault) must never propagate back into the parser and kill the
    run it was protecting: the sink degrades to counting-only, publishes
    one ``quarantine.degraded`` event, and keeps counting.
    """

    def __init__(self, max_samples: int = 100, events=None, chaos=None):
        self.max_samples = max_samples
        #: True once sample retention failed; counts keep accumulating.
        self.degraded = False
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._samples: list[QuarantinedRecord] = []
        #: Optional EventBus; each quarantined record publishes a
        #: "quarantine.record" event (driver-side sinks only — the
        #: reference is dropped when a per-task sink is pickled).
        self._events = events
        #: Optional ChaosInjector exercising the retention-failure path.
        self._chaos = chaos

    def add(self, kind: str, raw: str, reason: str) -> None:
        with self._lock:
            self._counts[kind] = self._counts.get(kind, 0) + 1
        became_degraded = False
        degrade_reason = ""
        try:
            if self._chaos is not None:
                self._chaos.hit("quarantine.sink", format=kind)
            with self._lock:
                if not self.degraded and len(self._samples) < self.max_samples:
                    self._samples.append(
                        QuarantinedRecord(kind, reason, raw[:MAX_RAW_CHARS])
                    )
        except OSError as exc:
            with self._lock:
                became_degraded = not self.degraded
                self.degraded = True
            degrade_reason = f"{type(exc).__name__}: {exc}"
        if self._events is not None:
            if became_degraded:
                self._events.publish("quarantine.degraded", reason=degrade_reason)
            self._events.publish("quarantine.record", format=kind, reason=reason)

    # -- queries -----------------------------------------------------------
    @property
    def total(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    @property
    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    @property
    def samples(self) -> list[QuarantinedRecord]:
        with self._lock:
            return list(self._samples)

    def merge(self, other: "QuarantineSink") -> None:
        """Fold another sink's records into this one (per-task sinks)."""
        other_counts = other.counts
        other_samples = other.samples
        with self._lock:
            for kind, count in other_counts.items():
                self._counts[kind] = self._counts.get(kind, 0) + count
            for record in other_samples:
                if len(self._samples) < self.max_samples:
                    self._samples.append(record)

    def summary(self) -> str:
        counts = self.counts
        if not counts:
            return "quarantine: empty"
        parts = ", ".join(f"{kind}={count}" for kind, count in sorted(counts.items()))
        return f"quarantine: {sum(counts.values())} record(s) ({parts})"

    def write_report(self, path: str) -> None:
        """Dump every retained sample as a human-readable report file.

        Best-effort: a write failure (disk full) degrades the sink and
        is swallowed — the report is diagnostics, not output.
        """
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.summary() + "\n")
                for record in self.samples:
                    fh.write(f"\n--- {record.kind}: {record.reason}\n")
                    fh.write(record.raw + "\n")
        except OSError as exc:
            became_degraded = False
            with self._lock:
                became_degraded = not self.degraded
                self.degraded = True
            if self._events is not None and became_degraded:
                self._events.publish(
                    "quarantine.degraded",
                    reason=f"{type(exc).__name__}: {exc}",
                )

    # A sink never pickles its lock or its event bus (task closures shipped
    # to cluster workers); a deserialized sink counts silently and its records
    # surface when it is merge()d back into the driver-side sink.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        state["_events"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return f"<QuarantineSink total={self.total}>"


def route_malformed(
    sink: QuarantineSink | None, kind: str, raw: str, reason: str
) -> None:
    """Record a bad record under the drop/quarantine policies.

    ``sink`` is None under ``"drop"`` (count nothing, keep nothing); the
    ``"fail"`` policy never reaches here — parsers raise directly so the
    original exception type and message are preserved.
    """
    if sink is not None:
        sink.add(kind, raw, reason)
