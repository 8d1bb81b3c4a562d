"""Per-task, per-stage and per-job metrics, and the named counters,
gauges and histograms every engine subsystem reports.

This is the instrumentation behind three of the paper's results:

- **Table 4** (redundancy elimination): stage counts, shuffle bytes,
  shuffle time, core-hours, GC time.
- **Figure 12** (blocked-time analysis, after Ousterhout et al. NSDI'15):
  per-task time blocked on disk and network, from which
  ``repro.cluster.blocked_time`` computes the best-case job-completion-time
  improvement if disk/network were infinitely fast.
- **Figure 13** (resource utilization): CPU vs I/O fractions per phase.

GC time is *measured*, not estimated: a ``gc.callbacks`` hook times real
collector pauses attributable to the running task.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.histogram import Histogram


@dataclass
class TaskMetrics:
    """Wall-clock accounting for one task attempt."""

    stage_id: int = -1
    partition: int = -1
    attempt: int = 0  # retry attempt index (0 = first try)
    run_time: float = 0.0  # total task wall time
    cpu_time: float = 0.0  # run_time minus blocked time
    disk_blocked: float = 0.0  # time in shuffle spill read/write
    network_blocked: float = 0.0  # modelled fabric transfer time
    gc_time: float = 0.0  # real collector pauses during the task
    shuffle_bytes_written: int = 0
    shuffle_bytes_read: int = 0
    records_read: int = 0
    records_written: int = 0
    worker: str = ""  # cluster worker id; empty for local transports

    def finalize(self) -> None:
        self.cpu_time = max(
            0.0, self.run_time - self.disk_blocked - self.network_blocked
        )


@dataclass
class StageMetrics:
    stage_id: int
    name: str = ""
    tasks: list[TaskMetrics] = field(default_factory=list)

    @property
    def run_time(self) -> float:
        return sum(t.run_time for t in self.tasks)

    @property
    def shuffle_bytes_written(self) -> int:
        return sum(t.shuffle_bytes_written for t in self.tasks)

    @property
    def shuffle_bytes_read(self) -> int:
        return sum(t.shuffle_bytes_read for t in self.tasks)

    @property
    def disk_blocked(self) -> float:
        return sum(t.disk_blocked for t in self.tasks)

    @property
    def network_blocked(self) -> float:
        return sum(t.network_blocked for t in self.tasks)

    @property
    def gc_time(self) -> float:
        return sum(t.gc_time for t in self.tasks)

    def totals(self) -> dict:
        """The stage summed once: the attributes its span closes with,
        which are also the run report's stage row."""
        return {
            "stage_id": self.stage_id,
            "name": self.name,
            "tasks": len(self.tasks),
            "run_time": self.run_time,
            "disk_blocked": self.disk_blocked,
            "network_blocked": self.network_blocked,
            "gc_time": self.gc_time,
            "shuffle_bytes_read": self.shuffle_bytes_read,
            "shuffle_bytes_written": self.shuffle_bytes_written,
            "records_read": sum(t.records_read for t in self.tasks),
            "records_written": sum(t.records_written for t in self.tasks),
        }


@dataclass
class JobMetrics:
    """Aggregated view of every stage that ran under one context."""

    stages: list[StageMetrics] = field(default_factory=list)

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def core_seconds(self) -> float:
        """Sum of task run times — Spark's "core-hour" in seconds."""
        return sum(s.run_time for s in self.stages)

    @property
    def shuffle_bytes(self) -> int:
        return sum(s.shuffle_bytes_written for s in self.stages)

    @property
    def shuffle_time(self) -> float:
        return sum(s.disk_blocked + s.network_blocked for s in self.stages)

    @property
    def gc_time(self) -> float:
        return sum(s.gc_time for s in self.stages)


@dataclass(frozen=True)
class TaskFailure:
    """One failed task attempt, as recorded by the scheduler's retry loop."""

    stage_kind: str  # "result" | "shuffle-map"
    partition: int
    attempt: int
    error_type: str  # exception class name, e.g. "TaskTimeoutError"
    message: str
    #: backoff delay (seconds) applied before the next attempt; 0 when the
    #: attempt was the last one.
    backoff: float = 0.0


class MetricsRegistry:
    """Everything one context measured, under one lock; thread-safe.

    Two kinds of record share the registry:

    - the **stage ledger** — :class:`StageMetrics` per stage, the
      :class:`TaskMetrics` of each successful attempt, and the
      :class:`TaskFailure` of each failed one (Table 4, Fig. 12);
    - **named values** — counters (monotonic totals, e.g.
      ``shuffle.bytes_written``), gauges (point-in-time bytes or levels)
      and fixed-bucket latency histograms (:class:`Histogram`).

    :meth:`snapshot` and :meth:`merge` carry the named values only: that
    is what a shipped task sends home in its RESULT frame and what the
    serve ``/metrics`` fold sums.  No ratio is stored as a gauge; a ratio
    is derived from byte gauges where it is read
    (``RunReport.memory_summary``), so a fold that sums gauges never sums
    a ratio.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._stages: dict[int, StageMetrics] = {}
        self._next_stage_id = 0
        self._failures: list[TaskFailure] = []

    # -- counters, gauges, histograms ---------------------------------------
    def inc(self, name: str, delta: float = 1) -> None:
        """Add ``delta`` to a monotonically increasing counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time value (cache sizes, memory bytes)."""
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named latency histogram."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def histogram(self, name: str) -> Histogram | None:
        """The live histogram object (shared; registry-lock discipline)."""
        with self._lock:
            return self._histograms.get(name)

    def snapshot(self) -> dict:
        """Copy of the named values: counters, gauges, histogram snapshots."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: h.snapshot() for name, h in self._histograms.items()
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` in (a shipped task's
        partial counts): counters add, histograms merge bucket-wise.
        Gauges are the sender's point-in-time values and are not folded.
        """
        with self._lock:
            for name, delta in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + delta
            for name, hist_snapshot in snapshot.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = Histogram()
                hist.merge_snapshot(hist_snapshot)

    # -- stage ledger -------------------------------------------------------
    def new_stage(self, name: str = "") -> StageMetrics:
        with self._lock:
            stage = StageMetrics(stage_id=self._next_stage_id, name=name)
            self._stages[stage.stage_id] = stage
            self._next_stage_id += 1
            return stage

    def add_task(self, stage: StageMetrics, task: TaskMetrics) -> None:
        task.stage_id = stage.stage_id
        with self._lock:
            stage.tasks.append(task)

    def job(self) -> JobMetrics:
        with self._lock:
            return JobMetrics(stages=[self._stages[i] for i in sorted(self._stages)])

    # -- failure ledger -----------------------------------------------------
    def record_failure(
        self,
        stage_kind: str,
        partition: int,
        attempt: int,
        error: BaseException,
        backoff: float = 0.0,
    ) -> None:
        """Ledger one failed task attempt and count it as
        ``task.failures`` (successful retries still leave their failures
        visible here — Spark's failed-task accounting)."""
        failure = TaskFailure(
            stage_kind=stage_kind,
            partition=partition,
            attempt=attempt,
            error_type=type(error).__name__,
            message=str(error),
            backoff=backoff,
        )
        with self._lock:
            self._failures.append(failure)
            self._counters["task.failures"] = (
                self._counters.get("task.failures", 0) + 1
            )

    @property
    def failures(self) -> list[TaskFailure]:
        with self._lock:
            return list(self._failures)

    def failure_counts(self) -> dict[tuple[str, int], int]:
        """Failed attempts per (stage_kind, partition) — the hot spots."""
        counts: dict[tuple[str, int], int] = {}
        for failure in self.failures:
            key = (failure.stage_kind, failure.partition)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._stages.clear()
            self._next_stage_id = 0
            self._failures.clear()


class _GcTimer:
    """Accumulates real garbage-collector pause time per thread.

    The ``gc.callbacks`` hook is process-global, so installation is
    reference-counted: each live :class:`~repro.engine.context.GPFContext`
    holds one reference (``acquire`` in its constructor, ``release`` in
    ``stop()``), and the callback is removed when the last reference
    drops — a stopped context no longer leaves a global hook firing on
    every collection for the rest of the interpreter's life.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._installed = False
        self._refs = 0
        self._lock = threading.Lock()

    def _callback(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        state = getattr(self._local, "state", None)
        if state is None:
            return
        if phase == "start":
            state["start"] = now
        elif phase == "stop" and state.get("start") is not None:
            state["total"] += now - state.pop("start")

    @property
    def installed(self) -> bool:
        with self._lock:
            return self._installed

    def install(self) -> None:
        """Ensure the hook is present (idempotent; does not take a ref)."""
        with self._lock:
            self._install_locked()

    def _install_locked(self) -> None:
        if not self._installed:
            gc.callbacks.append(self._callback)
            self._installed = True

    def uninstall(self) -> None:
        """Remove the hook unconditionally and drop all references."""
        with self._lock:
            self._refs = 0
            self._uninstall_locked()

    def _uninstall_locked(self) -> None:
        if self._installed:
            try:
                gc.callbacks.remove(self._callback)
            except ValueError:
                pass
            self._installed = False

    # -- reference counting (one ref per live context) ----------------------
    def acquire(self) -> None:
        with self._lock:
            self._refs += 1
            self._install_locked()

    def release(self) -> None:
        with self._lock:
            self._refs = max(0, self._refs - 1)
            if self._refs == 0:
                self._uninstall_locked()

    @contextmanager
    def installed_for(self) -> Iterator[None]:
        """Context-managed acquire/release pairing."""
        self.acquire()
        try:
            yield
        finally:
            self.release()

    @contextmanager
    def measure(self) -> Iterator[dict]:
        """Context manager yielding a dict whose 'total' is GC seconds."""
        self.install()
        state = {"total": 0.0, "start": None}
        self._local.state = state
        try:
            yield state
        finally:
            self._local.state = None


GC_TIMER = _GcTimer()


@contextmanager
def timed(task: TaskMetrics, attribute: str) -> Iterator[None]:
    """Add the elapsed time of the block to ``task.<attribute>``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        setattr(task, attribute, getattr(task, attribute) + time.perf_counter() - start)
