import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.context import EngineConfig, GPFContext
from repro.engine.rdd import RDD, FuncPartitioner, HashPartitioner, RangePartitioner


def test_rdd_public_surface_is_pinned():
    """The RDD API is what GPF's Processes, the ADAM baseline and the
    examples call, plus the ``compute``/``iterator`` hooks subclasses
    implement; a new operator arrives as a reviewed change here."""
    public = sorted(name for name in dir(RDD) if not name.startswith("_"))
    assert public == [
        "collect",
        "compute",
        "filter",
        "flat_map",
        "group_by_key",
        "iterator",
        "key_by",
        "map",
        "map_partitions",
        "map_partitions_with_index",
        "map_values",
        "partition_by",
        "persist",
        "reduce_by_key",
        "serializer",
        "set_name",
        "sort_by",
        "values",
        "zip_partitions",
    ]


class TestBasics:
    def test_parallelize_preserves_all_elements(self, ctx):
        data = list(range(97))
        assert ctx.parallelize(data, 7).collect() == data

    def test_map_filter(self, ctx):
        rdd = ctx.parallelize(range(20), 4)
        assert rdd.map(lambda x: x * 3).filter(lambda x: x % 2 == 0).collect() == [
            x * 3 for x in range(20) if (x * 3) % 2 == 0
        ]

    def test_flat_map(self, ctx):
        rdd = ctx.parallelize([1, 2, 3], 2)
        assert rdd.flat_map(lambda x: [x] * x).collect() == [1, 2, 2, 3, 3, 3]

    def test_map_partitions_with_index(self, ctx):
        rdd = ctx.parallelize(range(6), 3)
        out = rdd.map_partitions_with_index(lambda i, p: [(i, len(p))]).collect()
        assert out == [(0, 2), (1, 2), (2, 2)]

    def test_zip_partitions(self, ctx):
        a = ctx.parallelize([1, 2, 3, 4], 2)
        b = ctx.parallelize([10, 20, 30, 40], 2)
        out = a.zip_partitions(b, lambda x, y: [sum(x) + sum(y)]).collect()
        assert out == [1 + 2 + 10 + 20, 3 + 4 + 30 + 40]

    def test_zip_partitions_mismatch_rejected(self, ctx):
        a = ctx.parallelize([1], 1)
        b = ctx.parallelize([1], 2)
        with pytest.raises(ValueError):
            a.zip_partitions(b, lambda x, y: [])


class TestKeyValue:
    def test_reduce_by_key(self, ctx):
        rdd = ctx.parallelize([(i % 3, i) for i in range(12)], 4)
        out = dict(rdd.reduce_by_key(lambda a, b: a + b).collect())
        assert out == {0: 0 + 3 + 6 + 9, 1: 1 + 4 + 7 + 10, 2: 2 + 5 + 8 + 11}

    def test_group_by_key(self, ctx):
        rdd = ctx.parallelize([("a", 1), ("b", 2), ("a", 3)], 2)
        out = dict(rdd.group_by_key().collect())
        assert sorted(out["a"]) == [1, 3]
        assert out["b"] == [2]

    def test_values_mapvalues(self, ctx):
        rdd = ctx.parallelize([("a", 1), ("b", 2)], 1)
        assert rdd.values().collect() == [1, 2]
        assert rdd.map_values(lambda v: v * 10).collect() == [("a", 10), ("b", 20)]

class TestRepartitionSort:
    def test_sort_by(self, ctx):
        data = [5, 3, 8, 1, 9, 2, 7]
        rdd = ctx.parallelize(data, 3)
        assert rdd.sort_by(lambda x: x).collect() == sorted(data)
        assert rdd.sort_by(lambda x: -x).collect() == sorted(data, reverse=True)

    def test_sort_by_is_globally_sorted_across_partitions(self, ctx):
        import random

        rng = random.Random(5)
        data = [rng.randint(0, 1000) for _ in range(200)]
        out = ctx.parallelize(data, 4).sort_by(lambda x: x)
        parts = ctx.run_job(out)
        assert len(parts) == 4
        flat = [x for p in parts for x in p]
        assert flat == sorted(data)

    def test_partition_by_func(self, ctx):
        rdd = ctx.parallelize([(i, i) for i in range(10)], 2)
        out = rdd.partition_by(FuncPartitioner(2, lambda k: k % 2))
        parts = ctx.run_job(out)
        assert all(k % 2 == 0 for k, _ in parts[0])
        assert all(k % 2 == 1 for k, _ in parts[1])

    def test_func_partitioner_range_checked(self, ctx):
        from repro.engine.faults import PartitionIndexError, TaskFailedError

        rdd = ctx.parallelize([(5, 5)], 1)
        bad = rdd.partition_by(FuncPartitioner(2, lambda k: 7))
        # The error is deterministic: it fails the task on its first
        # attempt, without retries or backoff, as one task failure whose
        # cause is the typed (ValueError) partition-index error.
        assert ctx.config.max_task_attempts > 1
        with pytest.raises(TaskFailedError) as excinfo:
            bad.collect()
        assert isinstance(excinfo.value.cause, PartitionIndexError)
        assert isinstance(excinfo.value.cause, ValueError)
        assert excinfo.value.attempts == 1
        assert [(f.error_type, f.backoff) for f in ctx.metrics.failures] == [
            ("PartitionIndexError", 0.0)
        ]


class TestPartitioners:
    def test_hash_partitioner_bounds(self):
        p = HashPartitioner(7)
        assert all(0 <= p(k) < 7 for k in ["a", 1, (2, 3), None])

    def test_range_partitioner(self):
        p = RangePartitioner([10, 20])
        assert p(5) == 0 and p(10) == 1 and p(15) == 1 and p(25) == 2

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestCaching:
    def test_persist_avoids_recompute(self, ctx):
        calls = []

        def tracked(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize(range(10), 2).map(tracked).persist()
        rdd.collect()
        first = len(calls)
        rdd.collect()
        assert len(calls) == first  # second collect served from cache

    def test_cached_bytes_nonzero(self, ctx):
        rdd = ctx.parallelize(list(range(100)), 2).persist()
        rdd.collect()
        assert ctx.cached_bytes() > 0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-100, 100), max_size=60),
    st.integers(1, 6),
)
def test_collect_equals_input_property(data, partitions):
    with GPFContext(EngineConfig(default_parallelism=2)) as ctx:
        assert ctx.parallelize(data, partitions).collect() == data


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 50)), max_size=50))
def test_reduce_by_key_matches_dict_property(pairs):
    expected: dict = {}
    for k, v in pairs:
        expected[k] = expected.get(k, 0) + v
    with GPFContext(EngineConfig(default_parallelism=3)) as ctx:
        out = dict(ctx.parallelize(pairs, 3).reduce_by_key(lambda a, b: a + b).collect())
    assert out == expected
