"""Typed task failures: what the scheduler raises, retries and ledgers.

RDDs are *Resilient* Distributed Datasets: a lost task recomputes from
lineage.  The scheduler retries failed attempts; the errors here name why
an attempt or a whole task failed.  Controlled failures come from the
chaos plane (``repro.chaos``): its ``task.attempt`` site kills attempts
with :class:`InjectedFault`.
"""

from __future__ import annotations


class InjectedFault(RuntimeError):
    """Raised inside a task by the chaos plane's ``die`` fault.

    Kept picklable (single ``args`` message) so an injected failure
    survives the round trip through a cluster worker's ``ERROR`` frame.
    """

    def __init__(self, message: str = ""):
        super().__init__(message)


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


class PartitionIndexError(ValueError):
    """A partition function returned an index outside its partitioner.

    Deterministic: every attempt computes the same key and gets the same
    index, so the scheduler fails the task on its first attempt (one
    :class:`TaskFailedError`) instead of retrying it with backoff.
    """

    def __init__(self, index: object, num_partitions: int):
        super().__init__(
            f"partition function returned {index}, valid range is "
            f"[0, {num_partitions})"
        )
        self.index = index
        self.num_partitions = num_partitions

    def __reduce__(self):
        return (type(self), (self.index, self.num_partitions))


class WorkerLostError(RuntimeError):
    """A cluster worker died (or vanished) while running a task attempt.

    Raised driver-side by the cluster transport when the task channel to
    a worker breaks.  The scheduler retries the
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
