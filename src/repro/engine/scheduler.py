"""Stage-cutting DAG scheduler with task retry.

Walks an action RDD's lineage, finds every unsatisfied
:class:`ShuffleDependency` (the wide edges), topologically orders the map
stages those imply, runs each map stage's tasks on the executor, then runs
the result stage.  This mirrors Spark's DAGScheduler: narrow chains fuse
into one stage; every shuffle adds exactly one extra stage — which is what
makes the paper's "38 stages vs 22 stages" redundancy-elimination
comparison (Table 4) measurable here.

Tasks that raise are retried up to ``EngineConfig.max_task_attempts``
times (Spark's ``spark.task.maxFailures``); a retry recomputes the
partition from lineage — the RDD resilience property — and the chaos
plane's ``task.attempt`` site (``repro.chaos``) can kill attempts to
prove it.

Retries are hardened three ways (Spark's speculation, scaled down):

- **Deadlines** — with ``EngineConfig.task_timeout`` set, each attempt
  runs under a watchdog; a hung attempt is abandoned with
  :class:`~repro.engine.faults.TaskTimeoutError` and retried.
- **Backoff** — failed attempts sleep ``RETRY_BACKOFF * 2**attempt``
  (capped at ``RETRY_BACKOFF_MAX``, plus deterministic jitter) before
  retrying, so a transiently overloaded resource is not hammered.
- **Ledger** — every failed attempt is recorded in the metrics failure
  ledger keyed by ``(stage_kind, partition)``; executor-level incidents
  (timeouts, lost workers) are also counted as ``executor.<kind>``
  telemetry and published as ``executor.incident`` events.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Sequence, TYPE_CHECKING

from repro.engine.faults import (
    PartitionIndexError,
    RetryBudgetExhaustedError,
    ShuffleFetchFailedError,
    TaskFailedError,
    TaskTimeoutError,
    WorkerLostError,
)
from repro.engine.metrics import GC_TIMER, TaskMetrics

if TYPE_CHECKING:
    from repro.engine.context import GPFContext
    from repro.engine.rdd import RDD, ShuffleDependency

#: Base delay (seconds) of the exponential retry backoff.
RETRY_BACKOFF = 0.05
#: Ceiling on a single backoff sleep (seconds).
RETRY_BACKOFF_MAX = 2.0


class DAGScheduler:
    def __init__(self, ctx: "GPFContext"):
        self.ctx = ctx
        #: shuffle_id -> ShuffleDependency, kept after each map stage so
        #: lost map outputs can be regenerated from lineage on a
        #: shuffle-fetch failure (Spark's FetchFailed resubmission).
        self._map_specs: dict[int, "ShuffleDependency"] = {}

    # -- public ------------------------------------------------------------
    def run_job(self, rdd: "RDD", partitions: Sequence[int] | None = None) -> list[list]:
        """Materialize the given partitions of ``rdd`` (all by default)."""
        with self.ctx.tracer.span(f"job:{rdd.name}", kind="job", rdd_id=rdd.id):
            for dep in self._pending_shuffles(rdd):
                parent = dep.parent
                shuffle_id = self.ctx.shuffle_manager.register(parent.num_partitions)
                self._run_stage(
                    "shuffle-map",
                    f"shuffle-map:{parent.name}",
                    range(parent.num_partitions),
                    lambda split: self._map_task_body(dep, shuffle_id, split),
                )
                dep.shuffle_id = shuffle_id
                self._map_specs[shuffle_id] = dep
            splits = range(rdd.num_partitions) if partitions is None else list(partitions)
            return self._run_stage(
                "result",
                f"result:{rdd.name}",
                splits,
                lambda split: lambda task: rdd.iterator(split, task),
            )

    # -- planning ------------------------------------------------------------
    def _pending_shuffles(self, rdd: "RDD") -> list["ShuffleDependency"]:
        """Unwritten shuffle deps reachable from ``rdd``, parents first."""
        ordered: list[ShuffleDependency] = []
        seen_rdds: set[int] = set()

        def visit(node: "RDD") -> None:
            if node.id in seen_rdds:
                return
            seen_rdds.add(node.id)
            # If this node is persisted and fully cached we can stop: its
            # partitions will come from the cache, not from re-computation.
            if node._persisted and self.ctx._cache_complete(node):
                return
            for dep in node.shuffle_deps:
                visit(dep.parent)
                if dep.shuffle_id is None and dep not in ordered:
                    ordered.append(dep)
            for parent in node.parents:
                if parent not in [d.parent for d in node.shuffle_deps]:
                    visit(parent)

        visit(rdd)
        return ordered

    # -- task attempt wrapper --------------------------------------------------
    def _attempt_once(
        self,
        stage_kind: str,
        split: int,
        attempt: int,
        body: Callable[[TaskMetrics], object],
        parent_span=None,
    ) -> tuple[TaskMetrics, object]:
        """One measured task attempt: chaos site, body, GC accounting.

        ``parent_span`` is the stage span: task bodies run on executor
        threads with no thread-local span ancestry, so nesting must be
        explicit here.
        """
        task = TaskMetrics(partition=split, attempt=attempt)
        start = time.perf_counter()
        with self.ctx.tracer.span(
            f"{stage_kind}-p{split}",
            kind="task",
            parent=parent_span,
            partition=split,
            attempt=attempt,
        ) as span:
            with GC_TIMER.measure() as gc_state:
                if self.ctx.chaos is not None:
                    self.ctx.chaos.hit(
                        "task.attempt",
                        stage_kind=stage_kind,
                        partition=split,
                        attempt=attempt,
                    )
                # The transport seam: local transports run the body
                # inline and hand back the same TaskMetrics; the cluster
                # transport ships it and returns the worker-mutated copy.
                task, value = self.ctx.executor.execute(body, task)
            task.gc_time = gc_state["total"]
            task.run_time = time.perf_counter() - start
            task.finalize()
            span.set_attributes(
                run_time=task.run_time,
                disk_blocked=task.disk_blocked,
                network_blocked=task.network_blocked,
                gc_time=task.gc_time,
                shuffle_bytes_read=task.shuffle_bytes_read,
                shuffle_bytes_written=task.shuffle_bytes_written,
                records_read=task.records_read,
                records_written=task.records_written,
            )
            if task.worker:
                span.set_attributes(worker=task.worker)
        return task, value

    def _attempt_with_deadline(
        self,
        stage_kind: str,
        split: int,
        attempt: int,
        body: Callable[[TaskMetrics], object],
        timeout: float | None,
        parent_span=None,
    ) -> tuple[TaskMetrics, object]:
        """Run one attempt under the watchdog.

        The attempt runs on a daemon thread joined with ``timeout``; a
        still-running attempt is abandoned (Python threads cannot be
        killed, but its writes are idempotent — shuffle/checkpoint files
        are written atomically) and :class:`TaskTimeoutError` is raised so
        the retry loop treats the hang like any other failure.  With no
        timeout configured the attempt runs inline at zero overhead.
        """
        if timeout is None:
            return self._attempt_once(stage_kind, split, attempt, body, parent_span)
        outcome: list = []
        failure: list = []

        def run_attempt() -> None:
            try:
                outcome.append(
                    self._attempt_once(stage_kind, split, attempt, body, parent_span)
                )
            except BaseException as exc:  # noqa: BLE001 - reraised below
                failure.append(exc)

        worker = threading.Thread(
            target=run_attempt,
            daemon=True,
            name=f"gpf-task-{stage_kind}-p{split}-a{attempt}",
        )
        worker.start()
        worker.join(timeout)
        if worker.is_alive():
            raise TaskTimeoutError(
                f"{stage_kind} partition {split} attempt {attempt}", timeout
            )
        if failure:
            raise failure[0]
        return outcome[0]

    def _backoff_delay(self, stage_kind: str, split: int, attempt: int) -> float:
        """Exponential backoff with deterministic jitter, capped."""
        delay = min(RETRY_BACKOFF * (2**attempt), RETRY_BACKOFF_MAX)
        # Jitter is seeded from the task identity (a string seed hashes
        # identically across interpreters) so reruns back off identically.
        jitter = random.Random(f"{stage_kind}:{split}:{attempt}").uniform(
            0.0, delay / 2
        )
        return min(delay + jitter, RETRY_BACKOFF_MAX)

    def _run_with_retries(
        self,
        stage_kind: str,
        split: int,
        body: Callable[[TaskMetrics], object],
        record: Callable[[TaskMetrics], None],
        parent_span=None,
    ) -> object:
        """Run one task body with retries; returns its value."""
        max_attempts = max(1, self.ctx.config.max_task_attempts)
        timeout = self.ctx.config.task_timeout
        events = self.ctx.events
        for attempt in range(max_attempts):
            try:
                task, value = self._attempt_with_deadline(
                    stage_kind, split, attempt, body, timeout, parent_span
                )
                record(task)
                self.ctx.metrics.observe("task.seconds", task.run_time)
                return value
            except RetryBudgetExhaustedError:
                # Raised below on a previous task of this job; a budget
                # breach is terminal for the whole run, never retried.
                raise
            except Exception as exc:  # noqa: BLE001 - retry semantics
                if isinstance(exc, (TaskTimeoutError, WorkerLostError)):
                    kind = (
                        "timeout"
                        if isinstance(exc, TaskTimeoutError)
                        else "worker_lost"
                    )
                    self.ctx.metrics.inc(f"executor.{kind}")
                    events.publish("executor.incident", incident=kind)
                if isinstance(exc, ShuffleFetchFailedError):
                    # FetchFailed semantics: retrying the reduce against
                    # a dead peer can never succeed — regenerate the lost
                    # map outputs from lineage first, then retry.  A
                    # recovery that ran out of attempts is this attempt's
                    # error (its context is the fetch failure).
                    try:
                        self._recover_shuffle(exc, parent_span)
                    except TaskFailedError as recovery_failed:
                        exc = recovery_failed
                # A deterministic error fails the same way on every
                # attempt: no retry can help.
                retries_left = (
                    0
                    if isinstance(exc, PartitionIndexError)
                    else max_attempts - attempt - 1
                )
                delay = (
                    self._backoff_delay(stage_kind, split, attempt)
                    if retries_left
                    else 0.0
                )
                self.ctx.metrics.record_failure(
                    stage_kind, split, attempt, exc, backoff=delay
                )
                events.publish(
                    "task.failure",
                    stage_kind=stage_kind,
                    partition=split,
                    attempt=attempt,
                    error_type=type(exc).__name__,
                    message=str(exc)[:200],
                    backoff=delay,
                )
                # Consolidated per-job retry budget: total failed
                # attempts across the run, not per task.  A systemic
                # fault fails the job promptly instead of burning
                # max_task_attempts on every partition in turn.
                budget = self.ctx.config.retry_budget
                if budget is not None:
                    spent = len(self.ctx.metrics.failures)
                    if spent >= budget:
                        raise RetryBudgetExhaustedError(
                            budget, spent, exc
                        ) from exc
                if not retries_left:
                    raise TaskFailedError(stage_kind, split, attempt + 1, exc) from exc
                if delay:
                    time.sleep(delay)
        raise AssertionError("the last attempt returns or raises")

    # -- execution ----------------------------------------------------------
    @staticmethod
    def _map_task_body(
        dep: "ShuffleDependency", shuffle_id: int, split: int
    ) -> Callable[[TaskMetrics], None]:
        """The body of one map task: compute the parent partition, combine
        map-side if the dependency asks, spill it bucketed.

        The closure captures the dependency's fields, never the scheduler
        or the dependency itself: a shipped body carries its own stage and
        nothing of ``_map_specs``.  It writes through ``parent.ctx``, which
        on a worker resolves to the ``WorkerContext``.
        """
        parent = dep.parent
        partitioner = dep.partitioner
        map_side_combine = dep.map_side_combine

        def body(task: TaskMetrics) -> None:
            elements = parent.iterator(split, task)
            if map_side_combine is not None:
                elements = map_side_combine(elements)
            parent.ctx.shuffle_manager.write(
                shuffle_id, split, elements, partitioner, parent.serializer, task
            )

        return body

    def _run_stage(
        self,
        stage_kind: str,
        name: str,
        splits: Sequence[int],
        make_body: Callable[[int], Callable[[TaskMetrics], object]],
    ) -> list:
        """Run one stage's tasks under its span; the task values in split
        order.  The span closes with the stage's ledger totals, which is
        how its Table-4 row reaches the event log."""
        stage = self.ctx.metrics.new_stage(name=name)
        with self.ctx.tracer.span(
            name, kind="stage", stage_id=stage.stage_id, tasks=len(splits)
        ) as stage_span:

            def make_task(split: int) -> Callable[[], object]:
                body = make_body(split)
                return lambda: self._run_with_retries(
                    stage_kind,
                    split,
                    body,
                    lambda task: self.ctx.metrics.add_task(stage, task),
                    parent_span=stage_span,
                )

            try:
                return self.ctx.executor.run_all([make_task(s) for s in splits])
            finally:
                stage_span.set_attributes(**stage.totals())

    def _recover_shuffle(
        self, failure: ShuffleFetchFailedError, parent_span=None
    ) -> None:
        """Regenerate lost map outputs of one shuffle from lineage.

        Called between attempts of a reduce task that hit a fetch
        failure.  The transport reports which map partitions live on
        dead nodes; each is recomputed as a ``shuffle-map`` task with
        its own retries, backoff, deadline and ledger entries — landing
        on a surviving worker (or inline on the driver), whose write
        re-registers a fresh location that supersedes the dead one.
        Only the driver replays a written shuffle's map side: shipped
        tasks carry none of it.  A recovery that exhausts its attempts raises
        :class:`TaskFailedError` into the retrying reduce's loop, and
        its failed attempts count against the retry budget.
        """
        dep = self._map_specs.get(failure.shuffle_id)
        if dep is None:
            return
        missing = set(self.ctx.executor.missing_map_outputs(failure.shuffle_id))
        if failure.map_partition >= 0:
            missing.add(failure.map_partition)
        if not missing:
            return
        self.ctx.events.publish(
            "executor.incident",
            incident="shuffle_recovery",
            shuffle_id=failure.shuffle_id,
            maps=len(missing),
        )
        for split in sorted(missing):
            self._run_with_retries(
                "shuffle-map",
                split,
                self._map_task_body(dep, failure.shuffle_id, split),
                lambda task: None,
                parent_span=parent_span,
            )
