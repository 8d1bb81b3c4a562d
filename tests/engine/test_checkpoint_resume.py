"""Fault-tolerance suite: run-journal crash resume, task deadlines with
backoff, shutdown cleanup."""

from __future__ import annotations

import json
import os
import pickle
import time

import pytest

from repro.chaos import ChaosInjector, ChaosPlan, ChaosRule
from repro.core.pipeline import Pipeline
from repro.core.process import Process, ProcessState
from repro.core.resource import Resource
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.faults import (
    InjectedFault,
    TaskFailedError,
    TaskTimeoutError,
)
from repro.engine.journal import JOURNAL_VERSION, RunJournal, plan_signature
from repro.engine.scheduler import RETRY_BACKOFF, RETRY_BACKOFF_MAX
from repro.obs import MemorySink


def _kill_randomly(probability, max_faults=None):
    """Chaos rule: each task attempt dies with ``probability``."""
    return ChaosRule(
        site="task.attempt", fault="die", probability=probability, max_faults=max_faults
    )


# ---------------------------------------------------------------------------
# Context shutdown cleanup
# ---------------------------------------------------------------------------
class TestShutdownCleanup:
    def test_stop_removes_owned_spill_dir(self):
        ctx = GPFContext(EngineConfig(default_parallelism=2, memory_budget=1))
        ctx.parallelize(range(4), 2).map(lambda x: x).persist().collect()
        spill = ctx._spill_dir
        assert ctx.block_manager.stats.disk_blocks == 1
        assert os.path.isdir(spill)
        ctx.stop()
        assert not os.path.exists(spill)


# ---------------------------------------------------------------------------
# Run journal: crash resume at Process granularity
# ---------------------------------------------------------------------------
class _Stage(Process):
    """Adds one to every element; optionally crashes (simulated kill)."""

    def __init__(self, name, src, dst, log=None):
        super().__init__(name, [src], [dst])
        self._log = log
        self.crash = False

    def execute(self, ctx):
        if self.crash:
            raise RuntimeError("simulated crash")
        if self._log is not None:
            self._log.append(self.name)
        self.outputs[0].define(self.inputs[0].value.map(lambda x: x + 1))


class _Collect(Process):
    """Materializes the RDD into a plain list (journal 'value' path)."""

    def __init__(self, name, src, dst, log=None):
        super().__init__(name, [src], [dst])
        self._log = log

    def execute(self, ctx):
        if self._log is not None:
            self._log.append(self.name)
        self.outputs[0].define(self.inputs[0].value.collect())


def _build(ctx, log, n_stages=3):
    src = Resource("src")
    src.define(ctx.parallelize(range(20), 2))
    pipeline = Pipeline("journal-test", ctx)
    prev = src
    stages = []
    for i in range(n_stages):
        out = Resource(f"r{i}")
        stage = _Stage(f"stage{i}", prev, out, log)
        pipeline.add_process(stage)
        stages.append(stage)
        prev = out
    total = Resource("total")
    pipeline.add_process(_Collect("collect", prev, total, log))
    return pipeline, stages, total


class TestJournalResume:
    def test_kill_and_resume_skips_completed_processes(self, ctx, tmp_path):
        jdir = str(tmp_path / "journal")
        expected = [x + 3 for x in range(20)]

        log1: list[str] = []
        pipe1, stages1, _ = _build(ctx, log1)
        stages1[2].crash = True  # dies after stage0/stage1 committed
        with pytest.raises(RuntimeError, match="simulated crash"):
            pipe1.run(journal_dir=jdir)
        assert log1 == ["stage0", "stage1"]

        log2: list[str] = []
        pipe2, _, total2 = _build(ctx, log2)
        pipe2.run(journal_dir=jdir)
        # Only Processes after the kill point re-execute.
        assert log2 == ["stage2", "collect"]
        assert [p.name for p in pipe2.skipped] == ["stage0", "stage1"]
        assert [p.name for p in pipe2.executed] == ["stage2", "collect"]
        assert total2.value == expected
        # Byte-identical to an unjournaled reference run.
        pipe3, _, total3 = _build(ctx, [])
        pipe3.run()
        assert pickle.dumps(total2.value) == pickle.dumps(total3.value)

    def test_second_resume_skips_everything(self, ctx, tmp_path):
        jdir = str(tmp_path / "journal")
        pipe1, _, total1 = _build(ctx, [])
        pipe1.run(journal_dir=jdir)
        log: list[str] = []
        pipe2, stages2, total2 = _build(ctx, log)
        pipe2.run(journal_dir=jdir)
        assert log == []
        assert len(pipe2.skipped) == 4
        assert all(p.state is ProcessState.END for p in stages2)
        assert total2.value == total1.value

    def test_stale_journal_from_different_plan_is_discarded(self, ctx, tmp_path):
        jdir = str(tmp_path / "journal")
        pipe1, _, _ = _build(ctx, [], n_stages=2)
        pipe1.run(journal_dir=jdir)
        log: list[str] = []
        pipe2, _, total2 = _build(ctx, log, n_stages=3)  # structurally new plan
        pipe2.run(journal_dir=jdir)
        assert log == ["stage0", "stage1", "stage2", "collect"]
        assert pipe2.skipped == []
        assert total2.value == [x + 3 for x in range(20)]

    def test_journal_of_another_version_is_discarded(self, ctx, tmp_path):
        """A version-1 journal (checkpoints behind a ``GPB2`` header) is
        discarded whole, even when its files would decode."""
        jdir = str(tmp_path / "journal")
        pipe1, _, total1 = _build(ctx, [])
        pipe1.run(journal_dir=jdir)
        path = os.path.join(jdir, "journal.jsonl")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = json.loads(lines[0])
        assert header["version"] == JOURNAL_VERSION == 2
        header["version"] = 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([json.dumps(header), *lines[1:]]) + "\n")

        sink = MemorySink()
        ctx.events.subscribe(sink)
        try:
            log: list[str] = []
            pipe2, _, total2 = _build(ctx, log)
            pipe2.run(journal_dir=jdir)
        finally:
            ctx.events.unsubscribe(sink)
        assert "journal.stale" in [e["kind"] for e in sink.events]
        assert log == ["stage0", "stage1", "stage2", "collect"]
        assert pipe2.skipped == []
        assert pickle.dumps(total2.value) == pickle.dumps(total1.value)
        with open(path, encoding="utf-8") as fh:
            assert json.loads(fh.readline())["version"] == JOURNAL_VERSION

    def test_torn_trailing_line_tolerated(self, ctx, tmp_path):
        jdir = str(tmp_path / "journal")
        log1: list[str] = []
        pipe1, stages1, _ = _build(ctx, log1)
        stages1[1].crash = True
        with pytest.raises(RuntimeError):
            pipe1.run(journal_dir=jdir)
        # Simulate a crash mid-append: a torn, non-JSON trailing line.
        with open(os.path.join(jdir, "journal.jsonl"), "a", encoding="utf-8") as fh:
            fh.write('{"kind": "process", "proc')
        log2: list[str] = []
        pipe2, _, total2 = _build(ctx, log2)
        pipe2.run(journal_dir=jdir)
        assert log2 == ["stage1", "stage2", "collect"]
        assert total2.value == [x + 3 for x in range(20)]

    def test_corrupt_checkpoint_file_reexecutes_process(self, ctx, tmp_path):
        jdir = str(tmp_path / "journal")
        pipe1, _, _ = _build(ctx, [])
        pipe1.run(journal_dir=jdir)
        # Corrupt one of stage0's journaled partitions.
        data_dir = os.path.join(jdir, "data")
        victim = sorted(
            p for p in os.listdir(data_dir) if p.startswith("stage0__")
        )[0]
        with open(os.path.join(data_dir, victim), "r+b") as fh:
            fh.seek(10)
            fh.write(b"\x00\x00\x00")
        log: list[str] = []
        pipe2, _, total2 = _build(ctx, log)
        pipe2.run(journal_dir=jdir)
        # stage0 re-executes (its checkpoint is bad); later Processes with
        # intact checkpoints still skip.
        assert "stage0" in log
        assert "stage1" not in log and "stage2" not in log
        assert total2.value == [x + 3 for x in range(20)]

    def test_header_metadata_restored(self, ctx, tmp_path):
        class _Headered(Resource):
            def __init__(self, name):
                super().__init__(name)
                self.header = None

        class _Produce(Process):
            def execute(self, process_ctx):
                self.outputs[0].define(process_ctx.parallelize(range(4), 2))
                self.outputs[0].header = {"sorted": True, "by": self.name}

        def build():
            out = _Headered("headered")
            pipeline = Pipeline("hdr", ctx)
            pipeline.add_process(_Produce("producer", [], [out]))
            return pipeline, out

        jdir = str(tmp_path / "journal")
        pipe1, out1 = build()
        pipe1.run(journal_dir=jdir)
        assert out1.header == {"sorted": True, "by": "producer"}
        pipe2, out2 = build()
        pipe2.run(journal_dir=jdir)
        assert [p.name for p in pipe2.skipped] == ["producer"]
        assert out2.header == {"sorted": True, "by": "producer"}
        assert out2.value.collect() == list(range(4))

    def test_plan_signature_stable_and_structural(self, ctx):
        pipe1, _, _ = _build(ctx, [])
        pipe2, _, _ = _build(ctx, [])
        assert plan_signature(pipe1.processes) == plan_signature(pipe2.processes)
        pipe3, _, _ = _build(ctx, [], n_stages=2)
        assert plan_signature(pipe1.processes) != plan_signature(pipe3.processes)

    def test_kill_and_resume_under_random_faults(self, tmp_path):
        """Crash resume is byte-identical even with tasks dying at rate 0.2."""
        jdir = str(tmp_path / "journal")
        config = EngineConfig(
            default_parallelism=2,
            spill_dir=str(tmp_path / "spill"),
            executor_backend="threads",
            num_workers=2,
            max_task_attempts=8,
            chaos=ChaosPlan(seed=7, rules=[_kill_randomly(0.2)]),
        )
        with GPFContext(config) as ctx:
            reference, _, total_ref = _build(ctx, [])
            reference.run()
            expected = pickle.dumps(total_ref.value)

            pipe1, stages1, _ = _build(ctx, [])
            stages1[1].crash = True
            with pytest.raises(RuntimeError, match="simulated crash"):
                pipe1.run(journal_dir=jdir)

            log: list[str] = []
            pipe2, _, total2 = _build(ctx, log)
            pipe2.run(journal_dir=jdir)
            assert [p.name for p in pipe2.skipped] == ["stage0"]
            assert "stage0" not in log
            assert pickle.dumps(total2.value) == expected


# ---------------------------------------------------------------------------
# Task deadlines, backoff, failure ledger
# ---------------------------------------------------------------------------
class TestDeadlinesAndBackoff:
    def test_timeout_kills_hung_task_and_ledgers_backoff(self, tmp_path):
        config = EngineConfig(
            default_parallelism=1,
            spill_dir=str(tmp_path / "spill"),
            task_timeout=0.2,
            max_task_attempts=2,
        )

        def hang(x):
            time.sleep(2.0)
            return x

        with GPFContext(config) as ctx:
            with pytest.raises(TaskFailedError) as excinfo:
                ctx.parallelize([1], 1).map(hang).collect()
            assert isinstance(excinfo.value.cause, TaskTimeoutError)
            assert excinfo.value.__cause__ is excinfo.value.cause

            failures = ctx.metrics.failures
            assert len(failures) == 2
            assert {f.error_type for f in failures} == {"TaskTimeoutError"}
            # Backoff before the retry; none after the final attempt.
            assert failures[0].backoff > 0
            assert failures[1].backoff == 0.0
            assert ctx.metrics.failure_counts() == {("result", 0): 2}
            assert ctx.metrics.counter("executor.timeout") == 2
            assert ctx.telemetry_snapshot()["counters"]["executor.timeout"] == 2

    def test_timeout_recovers_when_retry_is_fast(self, tmp_path):
        config = EngineConfig(
            default_parallelism=1,
            spill_dir=str(tmp_path / "spill"),
            task_timeout=0.5,
            max_task_attempts=3,
        )
        hung_once: list[bool] = []

        def flaky(x):
            if not hung_once:
                hung_once.append(True)
                time.sleep(2.0)
            return x * 2

        with GPFContext(config) as ctx:
            assert ctx.parallelize([1, 2], 1).map(flaky).collect() == [2, 4]
            assert ctx.metrics.failure_counts() == {("result", 0): 1}

    def test_backoff_is_deterministic_and_bounded(self, ctx):
        scheduler = ctx._scheduler
        first = scheduler._backoff_delay("result", 3, 2)
        assert first == scheduler._backoff_delay("result", 3, 2)
        # Attempt 2: base * 2**2, plus up to half of that in jitter.
        assert RETRY_BACKOFF * 4 <= first <= RETRY_BACKOFF * 6
        # Different task identity jitters differently.
        assert first != scheduler._backoff_delay("result", 4, 2)
        # Exponential growth until the cap.
        assert scheduler._backoff_delay("result", 0, 9) == RETRY_BACKOFF_MAX

    def test_injected_failures_enter_ledger(self, tmp_path):
        config = EngineConfig(
            spill_dir=str(tmp_path / "spill"),
            chaos=ChaosPlan(rules=[_kill_randomly(1.0, max_faults=2)]),
        )
        with GPFContext(config) as ctx:
            ctx.parallelize(range(6), 2).collect()
            ledger = ctx.metrics.failures
        assert len(ledger) == 2
        assert {f.error_type for f in ledger} == {"InjectedFault"}


# ---------------------------------------------------------------------------
# Exceptions survive a pickle round trip (the cluster wire)
# ---------------------------------------------------------------------------
class TestExceptionPickling:
    def test_task_failed_error_round_trip(self):
        err = TaskFailedError("result", 3, 4, InjectedFault("boom"))
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, TaskFailedError)
        assert (clone.stage_kind, clone.partition, clone.attempts) == ("result", 3, 4)
        assert isinstance(clone.cause, InjectedFault)
        assert clone.__cause__ is clone.cause

    def test_task_timeout_error_round_trip(self):
        clone = pickle.loads(pickle.dumps(TaskTimeoutError("result p0", 1.5)))
        assert isinstance(clone, TaskTimeoutError)
        assert clone.timeout == 1.5 and clone.where == "result p0"

    def test_injector_round_trip_keeps_determinism(self):
        injector = ChaosInjector(ChaosPlan(seed=3, rules=[_kill_randomly(0.5)]))
        clone = pickle.loads(pickle.dumps(injector))

        def trace(inj):
            outcomes = []
            for i in range(20):
                try:
                    inj.hit("task.attempt", stage_kind="result", partition=i, attempt=0)
                    outcomes.append(False)
                except InjectedFault:
                    outcomes.append(True)
            return outcomes

        assert trace(injector) == trace(clone)
