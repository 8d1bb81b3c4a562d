"""Fault injection for resilience testing.

RDDs are *Resilient* Distributed Datasets: a lost task recomputes from
lineage.  The engine's scheduler retries failed tasks; this module
provides the controlled failure sources the resilience tests inject —
deterministic (fail attempt k of task p) and probabilistic (fail with
probability q, seeded).

Injectors are registered on the context and consulted by the scheduler
at task start; they see ``(stage_kind, partition, attempt)`` and raise
:class:`InjectedFault` to kill the attempt.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np


class InjectedFault(RuntimeError):
    """Raised inside a task by a fault injector.

    Kept picklable (single ``args`` message) so injected failures survive
    the round trip through the ``process`` executor backend.
    """

    def __init__(self, message: str = ""):
        super().__init__(message)


@dataclass
class FaultPlan:
    """Deterministic plan: fail specific (partition, attempt) pairs."""

    #: set of (partition, attempt) attempts to kill; attempts count from 0.
    failures: set[tuple[int, int]] = field(default_factory=set)

    def __call__(self, stage_kind: str, partition: int, attempt: int) -> None:
        if (partition, attempt) in self.failures:
            raise InjectedFault(
                f"injected failure: {stage_kind} partition {partition} "
                f"attempt {attempt}"
            )


@dataclass
class RandomFaults:
    """Probabilistic injector: each attempt fails with probability ``rate``.

    Deterministic given the seed; thread-safe.
    """

    rate: float
    seed: int = 0
    max_failures: int | None = None

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._lock = threading.Lock()
        self._injected = 0

    def __call__(self, stage_kind: str, partition: int, attempt: int) -> None:
        with self._lock:
            if self.max_failures is not None and self._injected >= self.max_failures:
                return
            if self._rng.random() < self.rate:
                self._injected += 1
                raise InjectedFault(
                    f"random failure: {stage_kind} partition {partition} "
                    f"attempt {attempt}"
                )

    @property
    def injected(self) -> int:
        with self._lock:
            return self._injected

    # Locks do not pickle; drop the lock so the injector can ship to a
    # process-backend worker (each worker gets an independent lock).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class TaskFailedError(RuntimeError):
    """A task exhausted its retry budget.

    The last underlying exception is both stored as :attr:`cause` and
    chained as ``__cause__`` so tracebacks show the real failure.
    """

    def __init__(self, stage_kind: str, partition: int, attempts: int, cause: Exception):
        super().__init__(
            f"{stage_kind} task for partition {partition} failed after "
            f"{attempts} attempts: {cause}"
        )
        self.stage_kind = stage_kind
        self.partition = partition
        self.attempts = attempts
        self.cause = cause
        self.__cause__ = cause

    def __reduce__(self):
        return (
            type(self),
            (self.stage_kind, self.partition, self.attempts, self.cause),
        )


class RetryBudgetExhaustedError(RuntimeError):
    """The run spent its consolidated retry budget.

    ``EngineConfig.retry_budget`` caps *total* failed attempts across a
    whole job (all stages, all partitions), so a systemic fault — a full
    disk, a dead dependency — fails the job promptly instead of grinding
    through ``max_task_attempts`` retries on every single task and
    wedging a service worker for minutes.
    """

    def __init__(self, budget: int, failures: int, cause: Exception | None = None):
        super().__init__(
            f"retry budget exhausted: {failures} failed attempts >= "
            f"budget of {budget}"
        )
        self.budget = budget
        self.failures = failures
        self.cause = cause
        if cause is not None:
            self.__cause__ = cause

    def __reduce__(self):
        return (type(self), (self.budget, self.failures, self.cause))


class WorkerLostError(RuntimeError):
    """A cluster worker died (or vanished) while running a task attempt.

    Raised driver-side by the cluster transport when the task channel to
    a worker breaks or its heartbeats stop.  The scheduler retries the
    attempt — on another worker, or inline on the driver when the fleet
    is empty — and counts the incident as ``executor.worker_lost``.
    """

    def __init__(self, worker: str, cause: Exception | None = None):
        super().__init__(
            f"worker {worker!r} lost mid-task"
            + (f": {cause}" if cause is not None else "")
        )
        self.worker = worker
        self.cause = cause
        if cause is not None:
            self.__cause__ = cause

    def __reduce__(self):
        return (type(self), (self.worker, self.cause))


class ShuffleFetchFailedError(RuntimeError):
    """A reduce task could not fetch one map output block.

    Carries the (shuffle, map partition) identity so the scheduler can
    regenerate exactly the lost map outputs from lineage — Spark's
    FetchFailed semantics — instead of retrying a fetch that can never
    succeed against a dead worker.
    """

    def __init__(self, shuffle_id: int, map_partition: int, where: str = ""):
        super().__init__(
            f"shuffle {shuffle_id} map output {map_partition} unavailable"
            + (f" ({where})" if where else "")
        )
        self.shuffle_id = shuffle_id
        self.map_partition = map_partition
        self.where = where

    def __reduce__(self):
        return (type(self), (self.shuffle_id, self.map_partition, self.where))


class TaskTimeoutError(RuntimeError):
    """A task attempt overran its deadline (``EngineConfig.task_timeout``)."""

    def __init__(self, where: str, timeout: float):
        super().__init__(f"task {where} exceeded its {timeout:.3f}s deadline")
        self.where = where
        self.timeout = timeout

    def __reduce__(self):
        return (type(self), (self.where, self.timeout))
