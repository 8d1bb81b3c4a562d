"""The read surface the benchmark ledger's counter pass depends on.

``benchmarks/ledger/harness.py`` (``_read_counters``) reads a finished
job through ``ctx.metrics.job()``, ``ctx.metrics.failures``,
``ctx.telemetry_snapshot()`` and ``ctx.block_manager.stats``.  The
ledger's own tests run only in its CI job, so this pins the same reads
on a tiny job here: a two-stage shuffle over a persisted RDD under a
memory budget that forces eviction, with one task attempt killed.
"""

from operator import add

import pytest

from repro.chaos import ChaosPlan, ChaosRule
from repro.engine.context import EngineConfig, GPFContext


@pytest.fixture
def finished(tmp_path):
    ctx = GPFContext(
        EngineConfig(
            default_parallelism=2,
            spill_dir=str(tmp_path / "spill"),
            memory_budget=1,
            chaos=ChaosPlan(
                rules=[ChaosRule(site="task.attempt", fault="die", nth=1)]
            ),
        )
    )
    try:
        pairs = ctx.parallelize([(i % 3, i) for i in range(30)], 2).persist()
        assert len(pairs.collect()) == 30
        result = dict(pairs.reduce_by_key(add).collect())
        assert result == {k: sum(range(k, 30, 3)) for k in range(3)}
        yield ctx
    finally:
        ctx.stop()


def test_job_ledger(finished):
    job = finished.metrics.job()
    assert [s.name.split(":")[0] for s in job.stages] == [
        "result",
        "shuffle-map",
        "result",
    ]
    assert sum(len(stage.tasks) for stage in job.stages) == 6
    assert job.shuffle_time > 0
    assert job.gc_time >= 0
    assert job.core_seconds == pytest.approx(
        sum(t.run_time for s in job.stages for t in s.tasks)
    )


def test_failures_counted_once(finished):
    counters = finished.telemetry_snapshot()["counters"]
    assert len(finished.metrics.failures) == counters["task.failures"] == 1
    # The snapshot is a read: taking it again does not count again.
    assert finished.telemetry_snapshot()["counters"]["task.failures"] == 1


def test_named_counters(finished):
    counters = finished.telemetry_snapshot()["counters"]
    assert counters["shuffle.bytes_written"] == counters["shuffle.bytes_read"] > 0
    assert counters["shuffle.records_written"] > 0
    assert counters["blockmanager.encode_seconds"] > 0
    assert counters.get("executor.fallbacks", 0) == 0


def test_block_manager_stats(finished):
    stats = finished.block_manager.stats
    # count() caches both partitions (two misses); the 1-byte budget
    # spills the older block, and the map tasks read both back (two
    # hits, one of them from disk).
    assert (stats.misses, stats.hits) == (2, 2)
    assert (stats.evictions, stats.disk_reads) == (1, 1)
    gauges = finished.telemetry_snapshot()["gauges"]
    assert stats.memory_bytes == gauges["blockmanager.compressed_bytes"] > 0
