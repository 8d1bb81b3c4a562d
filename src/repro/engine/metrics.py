"""Per-task, per-stage and per-job metrics.

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

    def blocked_fractions(self) -> tuple[float, float]:
        """(disk, network) blocked time as fractions of total task time."""
        total = self.core_seconds
        if total == 0:
            return (0.0, 0.0)
        disk = sum(s.disk_blocked for s in self.stages)
        net = sum(s.network_blocked for s in self.stages)
        return (disk / total, net / total)


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
    """Collects stage metrics for one context; thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: dict[int, StageMetrics] = {}
        self._next_stage_id = 0
        self._failures: list[TaskFailure] = []

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
        """Ledger one failed task attempt (successful retries still leave
        their failures visible here — Spark's failed-task accounting)."""
        with self._lock:
            self._failures.append(
                TaskFailure(
                    stage_kind=stage_kind,
                    partition=partition,
                    attempt=attempt,
                    error_type=type(error).__name__,
                    message=str(error),
                    backoff=backoff,
                )
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
