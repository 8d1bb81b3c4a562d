import dataclasses
import os

import pytest

from repro.engine.context import EngineConfig, GPFContext
from repro.engine.rdd import HashPartitioner


class TestStageCutting:
    def test_narrow_chain_is_one_stage(self, ctx):
        rdd = ctx.parallelize(range(10), 2).map(lambda x: x).filter(lambda x: True)
        rdd.collect()
        job = ctx.metrics.job()
        assert job.stage_count == 1  # no shuffle => only the result stage

    def test_each_shuffle_adds_a_stage(self, ctx):
        rdd = ctx.parallelize([(i % 3, i) for i in range(12)], 3)
        rdd.reduce_by_key(lambda a, b: a + b).collect()
        job = ctx.metrics.job()
        assert job.stage_count == 2  # map stage + result stage

    def test_join_has_two_map_stages(self, ctx):
        # A co-partitioned join: shuffle both sides, zip partition-wise.
        part = HashPartitioner(2)
        left = ctx.parallelize([("a", 1)], 2).partition_by(part)
        right = ctx.parallelize([("a", 2), ("b", 3)], 2).partition_by(part)
        joined = left.zip_partitions(
            right,
            lambda ls, rs: [(k, (v, w)) for k, v in ls for j, w in rs if j == k],
        )
        assert joined.collect() == [("a", (1, 2))]
        job = ctx.metrics.job()
        assert job.stage_count == 3  # two shuffle-map stages + result

    def test_shuffle_reused_across_actions(self, ctx):
        shuffled = ctx.parallelize([(1, 1), (2, 2)], 2).partition_by(HashPartitioner(2))
        shuffled.collect()
        stages_first = ctx.metrics.job().stage_count
        shuffled.collect()  # shuffle files already written -> no new map stage
        stages_second = ctx.metrics.job().stage_count
        assert stages_second == stages_first + 1

    def test_chained_shuffles_execute_in_order(self, ctx):
        rdd = ctx.parallelize([(i % 4, i) for i in range(40)], 4)
        out = (
            rdd.reduce_by_key(lambda a, b: a + b)
            .map(lambda kv: (kv[0] % 2, kv[1]))
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
        total = sum(v for _, v in out)
        assert total == sum(range(40))

    def test_cached_rdd_cuts_lineage(self, ctx):
        base = ctx.parallelize([(i % 2, i) for i in range(10)], 2)
        mid = base.reduce_by_key(lambda a, b: a + b).persist()
        mid.collect()
        before = ctx.metrics.job().stage_count
        # A new action on top of the cached RDD must not re-run its shuffle.
        mid.map(lambda kv: kv).collect()
        after = ctx.metrics.job().stage_count
        assert after == before + 1


class TestPartitionSubset:
    def test_run_job_partitions_subset(self, ctx):
        rdd = ctx.parallelize(range(10), 5)
        parts = ctx.run_job(rdd, partitions=[1, 3])
        assert parts == [[2, 3], [6, 7]]


class TestThreadBackend:
    def test_threads_give_same_results(self, tmp_path):
        config = EngineConfig(
            executor_backend="threads",
            num_workers=4,
            spill_dir=str(tmp_path / "spill"),
        )
        with GPFContext(config) as ctx:
            rdd = ctx.parallelize([(i % 5, i) for i in range(100)], 8)
            out = dict(rdd.reduce_by_key(lambda a, b: a + b).collect())
        expected = {k: sum(i for i in range(100) if i % 5 == k) for k in range(5)}
        assert out == expected

    def test_closed_context_rejects_jobs(self, tmp_path):
        ctx = GPFContext(EngineConfig(spill_dir=str(tmp_path / "s")))
        rdd = ctx.parallelize([1], 1)
        ctx.stop()
        with pytest.raises(RuntimeError, match="closed"):
            rdd.collect()


class TestSpillFiles:
    def test_shuffle_writes_real_files(self, shuffle_ctx, tmp_path):
        out = shuffle_ctx.parallelize([(1, 1), (2, 2)], 2).group_by_key().collect()
        assert sorted((k, list(v)) for k, v in out) == [(1, [1]), (2, [2])]
        files = [
            os.path.join(root, f)
            for root, _, fs in os.walk(tmp_path / "spill")
            for f in fs
        ]
        assert files, "shuffle must spill to disk even for in-memory data"


class TestEngineConfig:
    def test_field_names_are_pinned(self):
        """Every field is a configuration the cross-backend checks must
        cover; a new knob lands by changing this list in review."""
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "default_parallelism",
            "executor_backend",
            "num_workers",
            "serializer",
            "spill_dir",
            "max_task_attempts",
            "memory_budget",
            "task_timeout",
            "profile_interval",
            "trace_dir",
            "chaos",
            "cluster_listen",
            "cluster_min_workers",
            "cluster_wait",
            "retry_budget",
        ]
