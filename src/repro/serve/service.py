"""The resident pipeline service: worker pool, admission, durability.

One :class:`PipelineService` owns N worker threads.  Each worker builds
its own warm :class:`~repro.engine.context.GPFContext` once and reuses
it for every job it runs (``reset_for_reuse`` between jobs), which is
the point of serving instead of one-shot ``gpf run``: reference
indexes, executor pools, and the GC hook stay up, so a job pays only
its own compute.

Durability has two layers:

- **Job log** (``<state_dir>/jobs.jsonl``): every state change appends
  the job's full JSON, fsynced.  A restarted service folds the log,
  keeps terminal jobs as history, and requeues everything that was
  ``queued``/``admitted``/``running`` when the process died.
- **Per-job run journal** (``<state_dir>/journal/<job_id>/``): the
  existing :mod:`repro.engine.journal` Process checkpoints, namespaced
  by :func:`~repro.engine.journal.job_journal_dir` so identical plans
  can never restore each other's outputs.  A requeued mid-run job
  therefore *resumes* after its last committed Process.

Admission control is a bounded queue: past ``queue_depth`` the submit
raises :class:`~repro.serve.jobs.QueueFullError` (HTTP 429) without
touching running jobs; a draining service raises
:class:`ServiceDrainingError` (HTTP 503).
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.pipeline import PipelineCancelledError
from repro.engine.blockmanager import fsync_directory
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.journal import job_journal_dir
from repro.engine.metrics import MetricsRegistry
from repro.obs import EventBus, JsonlEventSink
from repro.serve.health import HealthConfig, ServiceHealth
from repro.serve.progress import JobProgress
from repro.serve.jobs import (
    ADMITTED,
    CANCELLED,
    FAILED,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    TERMINAL_STATES,
    Job,
    JobQueue,
    QueueClosedError,
    ServeError,
)

#: Gauges that fold by max, not sum: one fleet is shared by every serve
#: context on the box, so summing their views would count it repeatedly.
MAX_GAUGES = frozenset({"dist.workers"})


def fold_gauges(snapshots: Iterable[dict]) -> dict[str, float]:
    """Fold per-context gauge dicts: sum, or max for :data:`MAX_GAUGES`."""
    folded: dict[str, float] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if name in MAX_GAUGES:
                folded[name] = max(folded.get(name, value), value)
            else:
                folded[name] = folded.get(name, 0) + value
    return folded


#: Runner signature: (job, ctx, should_cancel, journal_dir) -> result dict.
JobRunner = Callable[[Job, GPFContext, Callable[[], bool], str], dict]


class ServiceDrainingError(ServeError):
    """Admission refused: the service is draining or shut down."""


class ServiceOverloadedError(ServeError):
    """Admission refused: the service is shedding low-priority load.

    Carries the Retry-After hint (seconds) the HTTP layer forwards, so
    well-behaved clients back off instead of hammering a sick service.
    """

    def __init__(self, message: str, retry_after: float = 2.0):
        super().__init__(message)
        self.retry_after = retry_after


class InvalidSpecError(ServeError):
    """The submitted job spec is missing or malformed."""


class UnknownJobError(ServeError):
    """No job with that id."""


class NotCancellableError(ServeError):
    """The job already reached a terminal state."""


REQUIRED_SPEC_KEYS = ("reference", "fastq1", "fastq2")


def validate_spec(spec: dict) -> None:
    """Reject a malformed WGS run spec before it enters the queue."""
    if not isinstance(spec, dict):
        raise InvalidSpecError(f"spec must be an object, got {type(spec).__name__}")
    for key in REQUIRED_SPEC_KEYS:
        value = spec.get(key)
        if not isinstance(value, str) or not value:
            raise InvalidSpecError(f"spec.{key} must be a non-empty path string")
    for key in ("partitions", "partition_length"):
        if key in spec and (not isinstance(spec[key], int) or spec[key] < 1):
            raise InvalidSpecError(f"spec.{key} must be a positive integer")
    if "priority" in spec and not isinstance(spec["priority"], int):
        raise InvalidSpecError("spec.priority must be an integer")
    if "timeout" in spec and spec["timeout"] is not None:
        timeout = spec["timeout"]
        if (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or timeout <= 0
        ):
            raise InvalidSpecError(
                "spec.timeout must be a positive number of seconds (or null)"
            )


def run_wgs_job(
    job: Job,
    ctx: GPFContext,
    should_cancel: Callable[[], bool],
    journal_dir: str,
) -> dict:
    """The default runner: one WGS pipeline over the spec's files.

    The same run as ``gpf run`` (:func:`repro.wgs.run_wgs_files`), but
    journaled under the job's namespace and polling ``should_cancel``
    between Processes.
    """
    from repro.wgs import run_wgs_files

    spec = job.spec
    start = time.perf_counter()
    handles, calls = run_wgs_files(
        ctx,
        spec["reference"],
        spec["fastq1"],
        spec["fastq2"],
        spec.get("partitions", ctx.config.default_parallelism),
        known_sites=spec.get("known_sites"),
        output=spec.get("output"),
        partition_length=spec.get("partition_length", 5_000),
        use_gvcf=bool(spec.get("gvcf", False)),
        malformed=spec.get("malformed", "fail"),
        optimize=bool(spec.get("optimize", True)),
        journal_dir=journal_dir,
        should_cancel=should_cancel,
        name=f"wgs-{job.id}",
    )
    return {
        "records": len(calls),
        "output": spec.get("output"),
        "elapsed": time.perf_counter() - start,
        "executed": [p.name for p in handles.pipeline.executed],
        "skipped": [p.name for p in handles.pipeline.skipped],
    }


@dataclass
class ServiceConfig:
    """Knobs of one service instance."""

    #: Worker threads, each with its own warm ``GPFContext``.
    workers: int = 2
    #: Bound of the admission queue (not counting running jobs).
    queue_depth: int = 8
    #: Default per-job deadline in seconds (cooperative: enforced between
    #: pipeline Processes).  ``None`` disables; a spec's ``timeout``
    #: overrides per job.
    job_timeout: float | None = None
    #: Template engine config each worker's context is built from
    #: (``trace_dir`` is always overridden per job).
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: Health state machine thresholds (degraded/shedding windows).
    health: HealthConfig = field(default_factory=HealthConfig)
    #: Service-level chaos: a :class:`repro.chaos.ChaosPlan` (or built
    #: injector) driving the serve-layer sites — worker death mid-job,
    #: HTTP connection resets, clock skew on persisted timestamps.
    #: Engine-level chaos goes in ``engine.chaos`` instead.
    chaos: object | None = None


class PipelineService:
    """Multi-tenant resident runner of GPF pipelines."""

    def __init__(
        self,
        state_dir: str,
        config: ServiceConfig | None = None,
        runner: JobRunner = run_wgs_job,
    ):
        self.config = config or ServiceConfig()
        self.state_dir = state_dir
        self.journal_root = os.path.join(state_dir, "journal")
        self.trace_root = os.path.join(state_dir, "trace")
        self.results_dir = os.path.join(state_dir, "results")
        for path in (state_dir, self.journal_root, self.trace_root, self.results_dir):
            os.makedirs(path, exist_ok=True)
        self._log_path = os.path.join(state_dir, "jobs.jsonl")
        self._runner = runner
        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._queue = JobQueue(self.config.queue_depth)
        self._running: dict[int, Job] = {}
        self._contexts: dict[int, GPFContext] = {}
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._done = threading.Condition(self._lock)
        self._draining = False
        self._started = False
        self._counters: dict[str, int] = {
            "jobs_submitted": 0,
            "jobs_rejected": 0,
            "jobs_shed": 0,
            "jobs_recovered": 0,
            "jobs_succeeded": 0,
            "jobs_failed": 0,
            "jobs_cancelled": 0,
        }
        # -- service-level observability + health + chaos ---------------
        # Health transitions, shed submissions, and injected serve-layer
        # faults all land in <state_dir>/service_events.jsonl; the sink
        # self-degrades on write errors, so a full disk loses the log,
        # never the service.
        self.events = EventBus()
        self._event_sink = JsonlEventSink(
            os.path.join(state_dir, "service_events.jsonl")
        )
        self.events.subscribe(self._event_sink)
        self.healthmon = ServiceHealth(self.config.health, events=self.events)
        chaos_cfg = self.config.chaos
        if chaos_cfg is None or hasattr(chaos_cfg, "hit"):
            self.chaos = chaos_cfg
            if chaos_cfg is not None and getattr(chaos_cfg, "events", None) is None:
                chaos_cfg.events = self.events
        else:
            from repro.chaos.injector import ChaosInjector

            self.chaos = ChaosInjector(chaos_cfg, events=self.events)
        #: Monotonic duration totals (seconds); clock steps cannot drive
        #: these negative the way wall-clock timestamp subtraction can.
        self._durations: dict[str, float] = {
            "jobs_queue_seconds": 0.0,
            "jobs_run_seconds": 0.0,
        }
        #: Service-level latency histograms (queue wait, job run time,
        #: HTTP request latency); folded into ``metrics()`` alongside the
        #: per-worker engine histograms.
        self.latencies = MetricsRegistry()
        #: Live progress trackers by job id.  A tracker subscribes to the
        #: running job's context bus and stays after the job ends so a
        #: trailing poll still sees the final snapshot.
        self._progress: dict[str, JobProgress] = {}
        self._recover()

    # -- durability ---------------------------------------------------------
    def _persist(self, job: Job) -> None:
        """Append the job's full state, fsynced — the durable queue.

        The append deliberately happens *under* the service lock: log
        order must match state-transition order, or a crash could
        replay an older state over a newer one.  The cost is bounded
        (one line + fsync) and only state changes pay it.
        """
        payload = job.to_json()
        if self.chaos is not None:
            # Clock-skew chaos shifts only the *persisted* wall-clock
            # timestamps — proving that recovery and duration accounting
            # (both monotonic-based) survive an NTP step between writes.
            offset = self.chaos.skew("serve.persist.clock", job=job.id)
            if offset:
                for key in (
                    "submitted_at", "admitted_at", "started_at", "finished_at",
                ):
                    if payload.get(key) is not None:
                        payload[key] += offset
        line = json.dumps(payload)
        with self._lock:
            with open(self._log_path, "a", encoding="utf-8") as fh:  # gpf: lock-io-ok(append order must match transition order)
                fh.write(line)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())  # gpf: lock-io-ok(append order must match transition order)

    def _compact_log(self) -> None:
        """Rewrite the log with one line per job (latest state).

        Holds the lock across the whole rewrite: a ``_persist`` append
        interleaved between snapshot and rename would be silently
        dropped by the rename.  Compaction runs once per recovery, so
        the stall is paid at startup, not in steady state.
        """
        with self._lock:
            jobs = list(self._jobs.values())
            tmp = self._log_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:  # gpf: lock-io-ok(rewrite must be atomic wrt concurrent appends)
                for job in jobs:
                    fh.write(json.dumps(job.to_json()))
                    fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())  # gpf: lock-io-ok(rewrite must be atomic wrt concurrent appends)
            os.replace(tmp, self._log_path)  # gpf: lock-io-ok(rewrite must be atomic wrt concurrent appends)
            fsync_directory(self.state_dir)  # gpf: lock-io-ok(rewrite must be atomic wrt concurrent appends)

    def _recover(self) -> None:
        """Fold the job log; requeue everything non-terminal.

        A job that was ``running`` when the service died re-enters the
        queue; its per-job journal turns the re-run into a resume.
        Undecodable lines (the torn tail of a crash) are skipped — each
        line is a self-contained snapshot, so nothing else is lost.
        """
        if not os.path.exists(self._log_path):
            return
        folded: dict[str, Job] = {}
        with open(self._log_path, "r", encoding="utf-8") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    data = json.loads(raw)
                    job = Job.from_json(data)
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue
                folded[job.id] = job
        # Recovery runs before the worker pool exists, but it mutates the
        # same state the pool will share; taking the (reentrant) lock
        # keeps every write to _jobs/_counters inside one discipline.
        with self._lock:
            for job in folded.values():
                if job.state not in TERMINAL_STATES:
                    job.requeue()
                    # Recovered entries were all admitted before the crash;
                    # the depth bound applies to new traffic only.
                    self._queue.push(job, force=True)
                    self._counters["jobs_recovered"] += 1
                self._jobs[job.id] = job
            self._compact_log()

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "PipelineService":
        """Spawn the worker pool (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
        for slot in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker, args=(slot,), name=f"gpf-serve-worker-{slot}"
            )
            thread.daemon = True
            thread.start()
            self._threads.append(thread)
        return self

    def drain(self, timeout: float | None = None) -> None:
        """Graceful shutdown: stop admitting, finish running jobs.

        Queued jobs stay queued — their state is already durable in the
        job log, so the next service instance over this state dir picks
        them up.  Worker contexts are stopped and the log compacted.
        """
        with self._lock:
            self._draining = True
        self._stop.set()
        self._queue.close()
        for thread in self._threads:
            thread.join(timeout)
        with self._lock:
            contexts = list(self._contexts.values())
            self._contexts.clear()
        for ctx in contexts:
            ctx.stop()
        self._compact_log()
        self.events.unsubscribe(self._event_sink)
        self._event_sink.close()

    shutdown = drain

    def __enter__(self) -> "PipelineService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.drain()

    # -- admission ----------------------------------------------------------
    def submit(
        self, spec: dict, priority: int = 0, job_id: str | None = None
    ) -> Job:
        """Validate, enqueue, and persist one job.

        Raises :class:`InvalidSpecError`, :class:`ServiceDrainingError`,
        or :class:`~repro.serve.jobs.QueueFullError` — each mapped to a
        distinct HTTP status by the API layer.
        """
        with self._lock:
            if self._draining:
                self._counters["jobs_rejected"] += 1
                raise ServiceDrainingError("service is draining; not accepting jobs")
        validate_spec(spec)
        # Load shedding: while unhealthy, refuse low-priority work with a
        # Retry-After *before* it occupies queue depth — capacity is kept
        # for the high-priority traffic already committed.
        retry_after = self.healthmon.should_shed(priority)
        if retry_after is not None:
            with self._lock:
                self._counters["jobs_rejected"] += 1
                self._counters["jobs_shed"] += 1
            self.healthmon.note_shed()
            self.events.publish(
                "job.shed",
                job_id=job_id or "",
                priority=priority,
                retry_after=retry_after,
            )
            raise ServiceOverloadedError(
                "service is shedding low-priority load "
                f"(health={self.healthmon.state}); retry in {retry_after:g}s",
                retry_after=retry_after,
            )
        job = Job(spec=dict(spec), priority=priority)
        if job_id is not None:
            job.id = job_id
        with self._lock:
            if job.id in self._jobs:
                raise InvalidSpecError(f"job id {job.id!r} already exists")
            try:
                self._queue.push(job)
            except QueueClosedError:
                # drain() closed the queue between the draining check
                # above and this push — same contract, same 503.
                self._counters["jobs_rejected"] += 1
                raise ServiceDrainingError(
                    "service is draining; not accepting jobs"
                ) from None
            except ServeError:
                self._counters["jobs_rejected"] += 1
                raise
            self._jobs[job.id] = job
            self._counters["jobs_submitted"] += 1
        self._persist(job)
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job outright, or flag a running one.

        A running job notices between pipeline Processes (cooperative
        cancellation); already-terminal jobs raise
        :class:`NotCancellableError`.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(f"no such job: {job_id}")
            if job.is_terminal:
                raise NotCancellableError(
                    f"job {job_id} already {job.state}"
                )
            job.cancel_requested = True
            if self._queue.cancel(job_id) and job.state == QUEUED:
                job.transition(CANCELLED)
                job.error = "cancelled while queued"
                self._counters["jobs_cancelled"] += 1
        self._persist(job)
        return job

    # -- queries ------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no such job: {job_id}")
        return job

    def jobs(self, state: str | None = None) -> list[Job]:
        """All known jobs, oldest first; optionally filtered by state."""
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.submitted_at)
        if state is not None:
            jobs = [j for j in jobs if j.state == state]
        return jobs

    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        with self._done:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    raise UnknownJobError(f"no such job: {job_id}")
                if job.is_terminal:
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {job.state} after {timeout}s"
                    )
                self._done.wait(min(remaining, 0.5))

    def job_trace_dir(self, job_id: str) -> str:
        return os.path.join(self.trace_root, job_id)

    def health(self) -> dict:
        """Liveness + the ServiceHealth state machine, for ``/healthz``.

        ``status`` is ``draining`` while shutting down, otherwise the
        health state (``healthy``/``degraded``/``shedding``).  The HTTP
        layer returns 200 for ``healthy``/``degraded`` and 503 only for
        ``shedding``/``draining`` — a degraded-but-coping service must
        not be restart-looped by its orchestrator.
        """
        health = self.healthmon.snapshot()
        with self._lock:
            workers_alive = sum(1 for t in self._threads if t.is_alive())
            payload = {
                "status": "draining" if self._draining else health["state"],
                "workers": self.config.workers,
                "workers_alive": workers_alive,
                "queue_depth": len(self._queue),
                "queue_capacity": self.config.queue_depth,
                "running": len(self._running),
                "jobs": len(self._jobs),
            }
        payload["health"] = health
        return payload

    def metrics(self) -> dict:
        """Service counters plus a fold of every live worker's metrics.

        Counters sum and histograms merge bucket-wise
        (:meth:`MetricsRegistry.merge`, the fold worker RESULT frames
        use); gauges sum except ``dist.workers`` (:func:`fold_gauges`).
        """
        with self._lock:
            contexts = list(self._contexts.values())
            service = dict(self._counters)
            service.update(self._durations)
            service.update(
                queued=len(self._queue),
                running=len(self._running),
                draining=self._draining,
            )
        snapshots = [ctx.telemetry_snapshot() for ctx in contexts]
        folded = MetricsRegistry()
        for snapshot in snapshots + [self.latencies.snapshot()]:
            folded.merge(snapshot)
        merged = folded.snapshot()
        payload = {
            "service": service,
            "health": self.healthmon.snapshot(),
            "counters": merged["counters"],
            "gauges": fold_gauges(s["gauges"] for s in snapshots),
            "histograms": merged["histograms"],
        }
        # Cluster transport: one fleet is shared by every context on this
        # box, so the first executor that has one speaks for all.
        for ctx in contexts:
            fleet = getattr(ctx.executor, "fleet", None)
            if fleet is not None:
                payload["fleet"] = fleet.fleet_snapshot()
                break
        return payload

    def progress(self, job_id: str) -> dict:
        """Live progress snapshot for one job (``GET /jobs/<id>/progress``).

        Known jobs always answer: a still-queued job reports zero
        progress, a running job streams its tracker, and a finished job
        returns the tracker's final snapshot (kept after unsubscribe).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            tracker = self._progress.get(job_id)
        if job is None:
            raise UnknownJobError(f"no such job: {job_id}")
        if tracker is None:
            payload = JobProgress(job_id).snapshot()
        else:
            payload = tracker.snapshot()
        payload["state"] = job.state
        return payload

    # -- the worker loop ----------------------------------------------------
    def _make_context(self, slot: int) -> GPFContext:
        engine = self.config.engine
        overrides: dict = {"trace_dir": None}
        if engine.spill_dir is not None:
            overrides["spill_dir"] = os.path.join(engine.spill_dir, f"worker{slot}")
        return GPFContext(dataclasses.replace(engine, **overrides))

    def _worker(self, slot: int) -> None:
        ctx = self._make_context(slot)
        with self._lock:
            self._contexts[slot] = ctx
        try:
            while not self._stop.is_set():
                job = self._queue.pop(timeout=0.1)
                if job is None:
                    continue
                try:
                    self._run_job(slot, ctx, job)
                except Exception as exc:  # noqa: BLE001 - worker survival
                    self._fail_job(slot, job, exc)
        finally:
            with self._lock:
                owned = self._contexts.pop(slot, None)
            if owned is not None:
                owned.stop()

    def _fail_job(self, slot: int, job: Job, exc: BaseException) -> None:
        """Last-ditch isolation: ``_run_job`` itself blew up.

        Force the job into ``failed`` — bypassing the state machine,
        which may not allow the edge from wherever the job got stuck —
        so one poison job can neither kill a worker thread nor persist
        in a non-terminal state and be requeued (and re-thrown) by
        every future service instance over this state dir.
        """
        failed_here = False
        with self._lock:
            if not job.is_terminal:
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = FAILED
                job.finished_at = time.time()  # gpf: wallclock-ok(persisted timestamp)
                started = job._mono.get("started")
                if started is not None and job.run_seconds is None:
                    job.run_seconds = time.monotonic() - started
                self._counters["jobs_failed"] += 1
                self._note_durations(job)
                failed_here = True
            self._running.pop(slot, None)
            self._done.notify_all()
        if failed_here:
            self.healthmon.record_outcome(False)
        try:
            self._persist(job)
        except Exception:  # noqa: BLE001 - persistence must not kill workers
            pass

    @staticmethod
    def _end_trace(ctx: GPFContext) -> None:
        """Flush the per-job event log *before* the terminal transition.

        ``_finish`` persists the terminal state; a client that observes
        it and immediately fetches the job must already see the full
        report, so ``run.end``/``telemetry`` have to be on disk first.
        Idempotent (``reset_for_reuse`` later is a no-op flush), and a
        flush failure must not flip a finished job's outcome.
        """
        try:
            ctx.end_trace()
        except Exception:  # noqa: BLE001
            pass

    def _note_durations(self, job: Job) -> None:
        """Fold one finished job's monotonic durations into the totals.

        Called with the lock held.
        """
        if job.queue_seconds is not None:
            self._durations["jobs_queue_seconds"] += job.queue_seconds
        if job.run_seconds is not None:
            self._durations["jobs_run_seconds"] += job.run_seconds

    def _finish(self, job: Job, state: str, counter: str) -> None:
        with self._lock:
            job.transition(state)
            self._counters[counter] += 1
            self._note_durations(job)
            for slot, running in list(self._running.items()):
                if running.id == job.id:
                    del self._running[slot]
            self._done.notify_all()
        # Cancellations say nothing about service health; successes and
        # failures feed the failure-rate window.
        if state == SUCCEEDED:
            self.healthmon.record_outcome(True)
        elif state == FAILED:
            self.healthmon.record_outcome(False)
        if job.run_seconds is not None:
            self.latencies.observe("jobs.run_seconds", job.run_seconds)
        self._persist(job)

    def _run_job(self, slot: int, ctx: GPFContext, job: Job) -> None:
        with self._lock:
            if job.is_terminal:  # cancelled between push and pop
                return
            job.transition(ADMITTED)
            job.worker = slot
            self._running[slot] = job
        if job.queue_seconds is not None:
            self.healthmon.record_queue_wait(job.queue_seconds)
            self.latencies.observe("jobs.queue_seconds", job.queue_seconds)
        self._persist(job)
        tracker = JobProgress(job.id)
        with self._lock:
            self._progress[job.id] = tracker
        ctx.events.subscribe(tracker)
        timeout: float | None = None
        deadline: float | None = None
        deadline_hit = False

        def should_cancel() -> bool:
            nonlocal deadline_hit
            if job.cancel_requested:
                return True
            if deadline is not None and time.monotonic() > deadline:
                deadline_hit = True
                return True
            return False

        try:
            # Everything driven by the user-controlled spec — including
            # the deadline arithmetic — stays inside the try so a bad
            # value fails this job instead of the worker thread.
            raw_timeout = job.spec.get("timeout", self.config.job_timeout)
            timeout = None if raw_timeout is None else float(raw_timeout)
            deadline = None if timeout is None else time.monotonic() + timeout
            ctx.begin_trace(self.job_trace_dir(job.id))
            with self._lock:
                job.transition(RUNNING)
            self._persist(job)
            if self.chaos is not None:
                # serve.worker.run faults: "die" fails this job cleanly
                # (the worker survives); "exit" raises SystemExit, which
                # escapes the Exception handlers below and kills the
                # worker thread mid-job — the job stays `running` in the
                # log and the next instance's recovery requeues it.
                self.chaos.hit("serve.worker.run", job=job.id, worker=slot)
            result = self._runner(
                job, ctx, should_cancel, job_journal_dir(self.journal_root, job.id)
            )
            result = dict(result or {})
            result["telemetry"] = ctx.telemetry_snapshot()
            job.result = result
            self._end_trace(ctx)
            self._finish(job, SUCCEEDED, "jobs_succeeded")
        except PipelineCancelledError as exc:
            self._end_trace(ctx)
            if deadline_hit and not job.cancel_requested:
                job.error = f"deadline exceeded ({timeout}s): {exc}"
                self._finish(job, FAILED, "jobs_failed")
            else:
                job.error = str(exc)
                self._finish(job, CANCELLED, "jobs_cancelled")
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self._end_trace(ctx)
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, FAILED, "jobs_failed")
        finally:
            # A BaseException (simulated kill) skips the handlers above:
            # the job stays `running` in the log and is requeued — and
            # resumed from its journal — by the next service instance.
            # The tracker is unsubscribed but kept in _progress: clients
            # polling a just-finished job still see the final snapshot.
            ctx.events.unsubscribe(tracker)
            with self._lock:
                self._running.pop(slot, None)
            ctx.reset_for_reuse()
