import gc
import json
import os
import socket
import tempfile
import threading

import pytest

from repro.engine.broadcast import Broadcast
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.executors import SerialExecutor, ThreadExecutor, make_executor
from repro.engine.metrics import (
    GC_TIMER,
    JobMetrics,
    MetricsRegistry,
    StageMetrics,
    TaskMetrics,
)
from repro.engine.rdd import HashPartitioner
from repro.engine.serializers import get_serializer
from repro.engine.shuffle import ShuffleManager
from repro.obs import Histogram, RunReport, StageRow
from repro.serve.service import fold_gauges


class TestTaskMetrics:
    def test_finalize_computes_cpu_time(self):
        task = TaskMetrics(run_time=10.0, disk_blocked=2.0, network_blocked=1.0)
        task.finalize()
        assert task.cpu_time == 7.0

    def test_finalize_clamps_at_zero(self):
        task = TaskMetrics(run_time=1.0, disk_blocked=2.0)
        task.finalize()
        assert task.cpu_time == 0.0


class TestAggregation:
    def test_job_metrics_sum_stages(self):
        s1 = StageMetrics(0, tasks=[TaskMetrics(run_time=1.0, shuffle_bytes_written=10)])
        s2 = StageMetrics(1, tasks=[TaskMetrics(run_time=2.0, shuffle_bytes_written=20)])
        job = JobMetrics(stages=[s1, s2])
        assert job.stage_count == 2
        assert job.core_seconds == 3.0
        assert job.shuffle_bytes == 30

    def test_stage_totals_sum_every_task(self):
        stage = StageMetrics(
            3,
            name="result:x",
            tasks=[
                TaskMetrics(run_time=1.0, records_read=2, records_written=1),
                TaskMetrics(run_time=2.0, records_read=3, shuffle_bytes_read=7),
            ],
        )
        totals = stage.totals()
        assert totals["stage_id"] == 3 and totals["tasks"] == 2
        assert totals["run_time"] == stage.run_time == 3.0
        assert (totals["records_read"], totals["records_written"]) == (5, 1)
        assert totals["shuffle_bytes_read"] == 7

    def test_blocked_fractions(self):
        # Fig. 12's fractions are the report's, computed over the rows the
        # stage totals build.
        stage = StageMetrics(
            0,
            tasks=[
                TaskMetrics(run_time=4.0, disk_blocked=1.0, network_blocked=0.5)
            ],
        )
        report = RunReport(stages=[StageRow(**stage.totals())])
        disk, net = report.blocked_fractions()
        assert disk == pytest.approx(0.25)
        assert net == pytest.approx(0.125)

    def test_empty_job(self):
        assert JobMetrics().core_seconds == 0
        assert RunReport().blocked_fractions() == (0.0, 0.0)


class TestEngineIntegration:
    def test_shuffle_bytes_recorded(self, shuffle_ctx):
        ctx = shuffle_ctx
        rdd = ctx.parallelize([(i, "x" * 100) for i in range(50)], 4)
        rdd.group_by_key().collect()
        job = ctx.metrics.job()
        assert job.shuffle_bytes > 0
        read = sum(t.shuffle_bytes_read for s in job.stages for t in s.tasks)
        written = sum(t.shuffle_bytes_written for s in job.stages for t in s.tasks)
        assert read == written

    def test_disk_blocked_time_positive_for_shuffles(self, shuffle_ctx):
        ctx = shuffle_ctx
        rdd = ctx.parallelize([(i % 3, "y" * 200) for i in range(300)], 4)
        rdd.group_by_key().collect()
        job = ctx.metrics.job()
        assert sum(s.disk_blocked for s in job.stages) > 0

    @staticmethod
    def _reduce_network_blocked(tmp_path, network_bandwidth) -> float:
        """Shuffle 4 map outputs through one manager; the reduce task's
        charged network-blocked seconds."""
        manager = ShuffleManager(
            str(tmp_path / "s"), network_bandwidth=network_bandwidth
        )
        serializer = get_serializer("gpf")
        shuffle_id = manager.register(4)
        for map_partition in range(4):
            manager.write(
                shuffle_id, map_partition, [(0, "z" * 500)] * 50,
                HashPartitioner(1), serializer, TaskMetrics(),
            )
        task = TaskMetrics()
        manager.read(shuffle_id, 0, serializer, task)
        return task.network_blocked

    def test_network_model_charges_remote_fraction(self, tmp_path):
        # A slow fabric so the charge is visible: 3 of 4 blocks are remote.
        assert self._reduce_network_blocked(tmp_path, 1e6) > 0

    def test_network_model_disabled(self, tmp_path):
        assert self._reduce_network_blocked(tmp_path, None) == 0

    def test_metrics_reset(self, ctx):
        ctx.parallelize([1], 1).collect()
        assert ctx.metrics.job().stage_count > 0
        ctx.metrics.reset()
        assert ctx.metrics.job().stage_count == 0


class TestMetricsRegistryConcurrency:
    def test_parallel_recording_is_consistent(self):
        registry = MetricsRegistry()
        threads_n, per_thread = 8, 50
        stage_ids: list[int] = []
        lock = threading.Lock()

        def pump():
            mine = []
            for i in range(per_thread):
                stage = registry.new_stage(name=f"s{i}")
                mine.append(stage.stage_id)
                registry.add_task(stage, TaskMetrics(run_time=0.001))
                registry.record_failure("result", i, 0, ValueError("x"))
                registry.inc("executor.timeout")
            with lock:
                stage_ids.extend(mine)

        workers = [threading.Thread(target=pump) for _ in range(threads_n)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        total = threads_n * per_thread
        assert len(stage_ids) == len(set(stage_ids)) == total
        job = registry.job()
        assert job.stage_count == total
        assert sum(len(s.tasks) for s in job.stages) == total
        # Stage ids come back sorted and dense.
        assert [s.stage_id for s in job.stages] == list(range(total))
        assert len(registry.failures) == total
        assert registry.counter("executor.timeout") == total
        assert registry.counter("task.failures") == total


class TestCountersAndGauges:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.set_gauge("g", 7)
        assert reg.counter("a") == 5
        assert reg.counter("nope") == 0
        assert reg.gauge("g") == 7
        snap = reg.snapshot()
        assert snap == {"counters": {"a": 5}, "gauges": {"g": 7}, "histograms": {}}
        # Snapshot is a copy — mutating it does not touch the registry.
        snap["counters"]["a"] = 0
        assert reg.counter("a") == 5

    def test_concurrent_inc(self):
        reg = MetricsRegistry()

        def pump():
            for _ in range(1000):
                reg.inc("n")

        threads = [threading.Thread(target=pump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n") == 8000

    def test_reset_clears_values_and_ledgers(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.add_task(reg.new_stage(), TaskMetrics())
        reg.record_failure("result", 0, 0, ValueError("x"))
        reg.reset()
        assert reg.snapshot()["counters"] == {}
        assert reg.job().stage_count == 0 and reg.failures == []
        assert reg.new_stage().stage_id == 0


class TestObserve:
    def test_observe_feeds_named_histogram(self):
        reg = MetricsRegistry()
        reg.observe("task.seconds", 0.5)
        reg.observe("task.seconds", 1.5)
        assert reg.histogram("task.seconds").count == 2
        snap = reg.snapshot()
        assert "task.seconds" in snap["histograms"]

    def test_reset_clears_histograms(self):
        reg = MetricsRegistry()
        reg.observe("x", 1.0)
        reg.reset()
        assert reg.snapshot()["histograms"] == {}


class TestGaugeFold:
    def test_point_in_time_gauges_are_not_summed(self):
        # Two contexts at 2.0x each are 2.0x together, not 4.0x: the ratio
        # is no gauge, so the fold sums only the bytes it derives from.
        context = {
            "blockmanager.compressed_bytes": 100,
            "blockmanager.logical_bytes": 200,
        }
        folded = fold_gauges([dict(context), dict(context)])
        assert "blockmanager.compression_ratio" not in folded
        assert folded["blockmanager.compressed_bytes"] == 200
        memory = RunReport(gauges=folded).memory_summary()
        assert memory["compression_ratio"] == pytest.approx(2.0)

    def test_derived_ratio_recomputed_from_folded_bytes(self):
        a = {"blockmanager.compressed_bytes": 100, "blockmanager.logical_bytes": 300}
        b = {"blockmanager.compressed_bytes": 300, "blockmanager.logical_bytes": 300}
        folded = fold_gauges([a, b])
        # Fleet-wide truth: 600 logical over 400 compressed = 1.5x, which
        # neither sum (4.0) nor max (3.0) of the per-context ratios gives.
        memory = RunReport(gauges=folded).memory_summary()
        assert memory["compression_ratio"] == pytest.approx(1.5)

    def test_registered_policy_applies(self):
        # The one level gauge: every context sees the same shared fleet.
        folded = fold_gauges([{"dist.workers": 2}, {"dist.workers": 3}])
        assert folded["dist.workers"] == 3

    def test_default_policy_sums(self):
        folded = fold_gauges([{"bytes": 1}, {"bytes": 2}])
        assert folded["bytes"] == 3


class TestFoldHistograms:
    def test_same_name_merges_across_workers(self):
        a, b = Histogram(), Histogram()
        a.observe(0.01)
        b.observe(0.02)
        folded = MetricsRegistry()
        folded.merge({"histograms": {"task.seconds": a.snapshot()}})
        folded.merge({"histograms": {"task.seconds": b.snapshot()}})
        assert folded.histogram("task.seconds").count == 2

    def test_disjoint_names_both_survive(self):
        a, b = Histogram(), Histogram()
        a.observe(0.01)
        b.observe(0.02)
        folded = MetricsRegistry()
        folded.merge({"histograms": {"one": a.snapshot()}})
        folded.merge({"histograms": {"two": b.snapshot()}})
        assert set(folded.snapshot()["histograms"]) == {"one", "two"}


class TestGcTimer:
    def test_context_refcounts_global_hook(self, tmp_path):
        baseline = GC_TIMER._refs
        c1 = GPFContext(EngineConfig(spill_dir=str(tmp_path / "a")))
        c2 = GPFContext(EngineConfig(spill_dir=str(tmp_path / "b")))
        assert GC_TIMER._refs == baseline + 2
        assert GC_TIMER._callback in gc.callbacks
        c1.stop()
        # One context still alive: the hook must stay.
        assert GC_TIMER._callback in gc.callbacks
        c2.stop()
        assert GC_TIMER._refs == baseline
        if baseline == 0:
            assert GC_TIMER._callback not in gc.callbacks

    def test_stop_is_idempotent_for_refcount(self, tmp_path):
        baseline = GC_TIMER._refs
        ctx = GPFContext(EngineConfig(spill_dir=str(tmp_path / "a")))
        ctx.stop()
        ctx.stop()
        assert GC_TIMER._refs == baseline

    def test_uninstall_removes_hook_unconditionally(self):
        GC_TIMER.acquire()
        GC_TIMER.acquire()
        GC_TIMER.uninstall()
        assert GC_TIMER._refs == 0
        assert GC_TIMER._callback not in gc.callbacks
        assert not GC_TIMER.installed
        # Re-acquire works after a hard uninstall.
        with GC_TIMER.installed_for():
            assert GC_TIMER.installed
        assert not GC_TIMER.installed

    def test_measure_still_accumulates(self):
        with GC_TIMER.installed_for():
            with GC_TIMER.measure() as state:
                gc.collect()
            assert state["total"] >= 0.0


class TestFailedConstructionReleasesEverything:
    """A context whose executor cannot be built or bound must give back
    what ``__init__`` had acquired and re-raise the original error."""

    @pytest.fixture
    def spill_root(self, tmp_path, monkeypatch):
        # mkdtemp lands here, so "no gpf_spill_* survives" is checked in a
        # directory no other context (or pytest session) writes to.
        root = tmp_path / "tmp"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        return root

    @staticmethod
    def _gpf_threads():
        return {t.ident for t in threading.enumerate() if t.name.startswith("gpf-")}

    def test_unknown_backend_with_profiler_and_trace(self, tmp_path, spill_root):
        refs, threads = GC_TIMER._refs, self._gpf_threads()
        config = EngineConfig(
            executor_backend="mpi",
            profile_interval=0.001,
            trace_dir=str(tmp_path / "trace"),
        )
        with pytest.raises(ValueError, match="unknown executor backend"):
            GPFContext(config)
        assert GC_TIMER._refs == refs
        assert os.listdir(spill_root) == []
        assert self._gpf_threads() - threads == set()
        assert not os.path.exists(tmp_path / "trace")  # no sink was opened

    @pytest.mark.parametrize("cleanup_fails", [False, True])
    def test_cluster_listen_port_in_use(
        self, tmp_path, spill_root, monkeypatch, cleanup_fails
    ):
        if cleanup_fails:
            # The caller must still see the bind error, and the releases
            # after the failing flush must still happen.
            flush = GPFContext._flush_observability

            def failing_flush(self):
                flush(self)
                raise RuntimeError("flush failed")

            monkeypatch.setattr(GPFContext, "_flush_observability", failing_flush)
        refs, threads = GC_TIMER._refs, self._gpf_threads()
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as squatter:
            squatter.bind(("127.0.0.1", 0))
            squatter.listen(1)
            port = squatter.getsockname()[1]
            config = EngineConfig(
                executor_backend="cluster",
                cluster_listen=f"127.0.0.1:{port}",
                profile_interval=0.001,
                trace_dir=str(tmp_path / "trace"),
            )
            with pytest.raises(OSError):
                GPFContext(config)
        assert GC_TIMER._refs == refs
        if refs == 0:
            assert not GC_TIMER.installed
        assert os.listdir(spill_root) == []
        assert self._gpf_threads() - threads == set()
        # The sink was closed, not abandoned: the log is complete.
        with open(tmp_path / "trace" / "events.jsonl") as fh:
            kinds = [json.loads(line)["kind"] for line in fh]
        assert kinds[0] == "run.start" and kinds[-1] == "run.end"


class TestBroadcast:
    def test_value_access(self):
        b = Broadcast({"a": 1})
        assert b.value == {"a": 1}

    def test_serialized_size_cached(self):
        b = Broadcast(list(range(1000)))
        size = b.serialized_size()
        assert size > 1000
        assert b.serialized_size() == size

    def test_destroyed_broadcast_raises(self):
        b = Broadcast(42)
        b.destroy()
        with pytest.raises(RuntimeError):
            _ = b.value


class TestExecutors:
    def test_serial_runs_in_order(self):
        order = []
        tasks = [lambda i=i: order.append(i) or i for i in range(5)]
        assert SerialExecutor().run_all(tasks) == [0, 1, 2, 3, 4]
        assert order == [0, 1, 2, 3, 4]

    def test_threads_return_in_submission_order(self):
        ex = ThreadExecutor(4)
        try:
            results = ex.run_all([lambda i=i: i * i for i in range(20)])
            assert results == [i * i for i in range(20)]
        finally:
            ex.shutdown()

    def test_make_executor_validation(self):
        with pytest.raises(ValueError):
            make_executor("mpi")
        with pytest.raises(ValueError):
            ThreadExecutor(0)
