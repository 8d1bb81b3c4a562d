"""Concurrency stress under the lockwatch watchdog.

Eight-plus threads hammer the shared pieces of the serve and obs layers
— :class:`MetricsRegistry`, :class:`EventBus` fan-out into a
:class:`JsonlEventSink`, and :class:`JobQueue` submit/cancel/pop — while
:mod:`repro.analysis.lockwatch` records every lock acquisition.  The
assertions are the two things a race would break: the counters balance
exactly, and the witnessed lock-acquisition graph has no order-inversion
cycles.  A full :class:`PipelineService` lifecycle runs under the
watchdog too, so the engine-layer locks (context, block manager,
shuffle, metrics) enter the same graph.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.analysis import lockwatch

N_THREADS = 8
OPS = 150


@pytest.fixture
def watch():
    lockwatch.reset()
    lockwatch.install()
    try:
        yield lockwatch
    finally:
        lockwatch.uninstall()
        lockwatch.reset()


def _run_threads(fn):
    barrier = threading.Barrier(N_THREADS)

    def wrapped(i):
        barrier.wait(timeout=30.0)
        fn(i)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads), "stress thread hung"


class TestTelemetryAndEvents:
    def test_counters_balance_and_no_inversions(self, watch, tmp_path):
        # Construct AFTER install so every lock is watched.
        from repro.engine.metrics import MetricsRegistry
        from repro.obs.events import EventBus, JsonlEventSink

        registry = MetricsRegistry()
        bus = EventBus()
        sink = JsonlEventSink(str(tmp_path / "events.jsonl"))
        bus.subscribe(sink)

        def worker(i):
            for k in range(OPS):
                registry.inc("stress.ops")
                registry.inc("stress.bytes", k)
                registry.set_gauge(f"stress.thread{i}", k)
                bus.publish("stress.tick", thread=i, k=k)

        _run_threads(worker)
        bus.unsubscribe(sink)
        sink.close()

        assert registry.counter("stress.ops") == N_THREADS * OPS
        assert (
            registry.counter("stress.bytes")
            == N_THREADS * sum(range(OPS))
        )
        lines = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        assert len(lines) == N_THREADS * OPS
        assert all(e["kind"] == "stress.tick" for e in lines)

        report = watch.report()
        assert report["cycles"] == [], report["cycles"]

    def test_one_lock_keeps_values_and_ledgers_exact(self, watch):
        """Named values, the stage ledger and the failure ledger share
        one lock; interleaving all four writers loses nothing."""
        from repro.engine.metrics import MetricsRegistry, TaskMetrics

        registry = MetricsRegistry()
        stages = [registry.new_stage(name=f"s{i}") for i in range(N_THREADS)]

        def worker(i):
            for k in range(OPS):
                registry.inc("stress.ops")
                registry.observe("stress.seconds", k * 1e-3)
                # Every thread writes every stage, so appends collide.
                registry.add_task(stages[k % N_THREADS], TaskMetrics(partition=k))
                if k % 3 == 0:
                    registry.record_failure("result", k, i, ValueError("x"))

        _run_threads(worker)

        total = N_THREADS * OPS
        assert registry.counter("stress.ops") == total
        assert registry.histogram("stress.seconds").count == total
        job = registry.job()
        assert [len(s.tasks) for s in job.stages] == [
            N_THREADS * len(range(j, OPS, N_THREADS)) for j in range(N_THREADS)
        ]
        failures = len(registry.failures)
        assert failures == N_THREADS * len(range(0, OPS, 3))
        assert registry.snapshot()["counters"]["task.failures"] == failures

        report = watch.report()
        assert report["cycles"] == [], report["cycles"]


class TestJobQueue:
    def test_submit_cancel_pop_balance(self, watch):
        from repro.serve.jobs import Job, JobQueue, QueueFullError

        queue = JobQueue(depth=N_THREADS * OPS + 1)
        pushed = [0] * N_THREADS
        popped = [0] * N_THREADS
        cancelled = [0] * N_THREADS

        def worker(i):
            for k in range(OPS):
                job = Job(spec={"thread": i, "k": k}, priority=k % 3)
                try:
                    queue.push(job)
                    pushed[i] += 1
                except QueueFullError:
                    continue
                if k % 5 == 0 and queue.cancel(job.id):
                    cancelled[i] += 1
                if k % 2 == 0:
                    got = queue.pop(timeout=0.05)
                    if got is not None:
                        popped[i] += 1

        _run_threads(worker)

        drained = 0
        while queue.pop(timeout=0.01) is not None:
            drained += 1
        # Every push is accounted for exactly once: popped by a worker,
        # cancelled while queued, or drained at the end.
        assert sum(pushed) == sum(popped) + sum(cancelled) + drained
        assert len(queue) == 0

        report = watch.report()
        assert report["cycles"] == [], report["cycles"]


class TestServiceLifecycle:
    def test_service_under_watchdog(self, watch, tmp_path):
        from repro.serve import PipelineService, ServiceConfig

        done = threading.Event()

        def runner(job, ctx, should_cancel, journal_dir):
            done.set()
            return {"records": 0, "output": None}

        spec = {
            "reference": "r.fa",
            "fastq1": "a.fq",
            "fastq2": "b.fq",
        }
        service = PipelineService(
            str(tmp_path / "state"),
            config=ServiceConfig(workers=2, queue_depth=16),
            runner=runner,
        )
        with service:
            jobs = [service.submit(dict(spec)) for _ in range(6)]
            for job in jobs:
                service.wait(job.id, timeout=30.0)
        assert done.is_set()
        assert all(j.state == "succeeded" for j in jobs)
        # Monotonic durations exist and can never be negative.
        assert all(j.run_seconds is not None and j.run_seconds >= 0 for j in jobs)
        assert all(
            j.queue_seconds is not None and j.queue_seconds >= 0 for j in jobs
        )
        metrics = service.metrics()["service"]
        assert metrics["jobs_run_seconds"] >= 0
        assert metrics["jobs_queue_seconds"] >= 0

        report = watch.report()
        assert report["cycles"] == [], report["cycles"]
        # The run exercised real locks — an empty graph would mean the
        # watchdog silently watched nothing.
        assert report["locks"], "watchdog recorded no lock activity"
