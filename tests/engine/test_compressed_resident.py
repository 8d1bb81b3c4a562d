"""Compressed-resident partitions end to end: cache, budget eviction,
spill, journal checkpoints, the telemetry gauges, and the three places a
stored partition is read, each decoding it once to a list.  Every stored
partition is the serializer's bytes, framed by ``GPFB`` on disk."""

import pytest

from repro.engine.blockmanager import frame_block
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.journal import CheckpointFileRDD
from repro.engine.metrics import TaskMetrics
from repro.engine.rdd import HashPartitioner
from repro.engine.shuffle import read_block
from repro.formats.fastq import FastqPair, FastqRecord
from tests.engine.journaled import partition_files, run_journaled


def make_pairs(n: int) -> list[FastqPair]:
    bases = "ACGT"
    pairs = []
    for i in range(n):
        seq = "".join(bases[(i + j) % 4] for j in range(80))
        pairs.append(
            FastqPair(
                FastqRecord(f"frag{i}/1", seq, "I" * 80),
                FastqRecord(f"frag{i}/2", seq[::-1], "H" * 80),
            )
        )
    return pairs


@pytest.fixture()
def gpf_ctx(tmp_path):
    context = GPFContext(
        EngineConfig(
            default_parallelism=3,
            serializer="gpf",
            spill_dir=str(tmp_path / "spill"),
        )
    )
    yield context
    context.stop()


class TestReadsDecodeToLists:
    def test_cache_get_returns_a_counted_list(self, gpf_ctx):
        pairs = make_pairs(30)
        rdd = gpf_ctx.parallelize(pairs, 3).persist()
        assert rdd.collect() == pairs  # populates the cache
        block = gpf_ctx.block_manager.get((rdd.id, 0))
        assert block == gpf_ctx.serializer.dumps(pairs[:10])
        assert block[:1] == b"P"
        before = gpf_ctx.metrics.counter("blockmanager.decoded_records")
        cached = gpf_ctx._cache_get(rdd, 0)
        assert type(cached) is list
        assert cached == pairs[:10]
        assert gpf_ctx.metrics.counter("blockmanager.decoded_records") == before + 10

    def test_shuffle_read_returns_one_list(self, gpf_ctx):
        keyed = [(i % 3, p) for i, p in enumerate(make_pairs(12))]
        shuffled = gpf_ctx.parallelize(keyed, 3).partition_by(HashPartitioner(2))
        collected = shuffled.collect()  # writes the shuffle
        task = TaskMetrics()
        got = gpf_ctx.shuffle_manager.read(
            shuffled.shuffle_deps[0].shuffle_id, 0, gpf_ctx.serializer, task
        )
        assert type(got) is list
        assert got == [kv for kv in collected if HashPartitioner(2)(kv[0]) == 0]
        assert task.records_read == len(got)

    def test_checkpoint_compute_returns_a_list(self, gpf_ctx, tmp_path):
        pairs = make_pairs(12)
        jdir = str(tmp_path / "journal")
        run_journaled(gpf_ctx, jdir, pairs, lambda p: p)
        executed, out = run_journaled(gpf_ctx, jdir, pairs, lambda p: p)
        assert not executed and isinstance(out, CheckpointFileRDD)
        part = out.compute(0, TaskMetrics())
        assert type(part) is list
        assert part == pairs[:6]


class TestCachedBlocksStayCompressed:
    def test_collect_from_cache_round_trips(self, gpf_ctx):
        pairs = make_pairs(24)
        rdd = gpf_ctx.parallelize(pairs, 3).persist()
        first = rdd.collect()
        second = rdd.collect()  # cache hit path
        assert first == second == pairs
        assert gpf_ctx.block_manager.stats.hits > 0

    def test_telemetry_gauges_present(self, gpf_ctx):
        pairs = make_pairs(40)
        rdd = gpf_ctx.parallelize(pairs, 2).persist()
        rdd.collect()
        rdd.collect()
        snapshot = gpf_ctx.telemetry_snapshot()
        gauges = snapshot["gauges"]
        assert gauges["blockmanager.compressed_bytes"] > 0
        assert gauges["blockmanager.logical_bytes"] > gauges[
            "blockmanager.compressed_bytes"
        ]
        assert "blockmanager.compression_ratio" not in gauges
        counters = snapshot["counters"]
        assert counters["blockmanager.decode_seconds"] > 0
        assert counters["blockmanager.decoded_records"] > 0

    def test_memory_accounting_uses_compressed_bytes(self, gpf_ctx):
        pairs = make_pairs(40)
        rdd = gpf_ctx.parallelize(pairs, 2).persist()
        rdd.collect()
        stats = gpf_ctx.block_manager.stats
        # The resident footprint must be well under the decoded one.
        assert stats.memory_bytes < stats.logical_bytes / 2


class TestMemoryBudget:
    def test_budget_forces_spill_results_unchanged(self, tmp_path):
        pairs = make_pairs(60)
        context = GPFContext(
            EngineConfig(
                default_parallelism=4,
                serializer="gpf",
                spill_dir=str(tmp_path / "spill"),
                memory_budget=512,  # far below the compressed working set
            )
        )
        try:
            rdd = context.parallelize(pairs, 4).persist()
            assert rdd.collect() == pairs
            assert rdd.collect() == pairs  # spilled blocks read back
            stats = context.block_manager.stats
            assert stats.evictions > 0
            assert stats.disk_blocks > 0
        finally:
            context.stop()

    def test_roomy_budget_never_evicts(self, tmp_path):
        config = EngineConfig(
            spill_dir=str(tmp_path / "s"),
            memory_budget=1 << 30,
        )
        context = GPFContext(config)
        try:
            rdd = context.parallelize(make_pairs(20), 2).persist()
            rdd.collect()
            assert context.block_manager.stats.evictions == 0
        finally:
            context.stop()


class TestCheckpointCompressed:
    def test_checkpoint_round_trips(self, gpf_ctx, tmp_path):
        pairs = make_pairs(18)
        jdir = str(tmp_path / "journal")
        run_journaled(gpf_ctx, jdir, pairs, lambda p: p, partitions=3)
        executed, out = run_journaled(gpf_ctx, jdir, pairs, lambda p: p, partitions=3)
        assert not executed  # restored from the journal's files
        assert out.collect() == pairs
        assert out.collect() == pairs

    def test_checkpoint_files_are_framed_serializer_bytes(self, gpf_ctx, tmp_path):
        pairs = make_pairs(12)
        jdir = str(tmp_path / "journal")
        run_journaled(gpf_ctx, jdir, pairs, lambda p: p)
        paths = partition_files(jdir)
        assert len(paths) == 2
        for path, part in zip(paths, (pairs[:6], pairs[6:])):
            with open(path, "rb") as fh:
                assert fh.read() == frame_block(gpf_ctx.serializer.dumps(part))


class TestShuffleSpillCompressed:
    def test_group_by_key_round_trips(self, gpf_ctx):
        pairs = make_pairs(20)
        keyed = gpf_ctx.parallelize(
            [(i % 4, p) for i, p in enumerate(pairs)], 2
        )
        grouped = dict(keyed.group_by_key().collect())
        assert set(grouped) == {0, 1, 2, 3}
        assert sorted(
            p.name for vs in grouped.values() for p in vs
        ) == sorted(p.name for p in pairs)

    def test_spill_files_are_framed_bundles(self, tmp_path):
        spill = tmp_path / "spill"
        context = GPFContext(
            EngineConfig(default_parallelism=2, serializer="gpf", spill_dir=str(spill))
        )
        try:
            data = [(i % 2, i) for i in range(10)]
            keyed = context.parallelize(data, 2)
            # Two keys over five reduce partitions: at least three empty
            # buckets per map task.
            keyed.partition_by(HashPartitioner(5)).collect()
            map_files = sorted(spill.glob("shuffle_*/*.bin"))
            assert [p.name for p in map_files] == ["0.bin", "1.bin"]
            for path, map_data in zip(map_files, (data[:5], data[5:])):
                shuffle_id = int(path.parent.name.split("_")[1])
                blocks = [
                    read_block(str(spill), shuffle_id, int(path.stem), r)
                    for r in range(5)
                ]
                # A non-empty indexed range is exactly its crc frame
                # around the bucket's serializer payload, the buckets
                # encoded in one ``dumps_many`` pass.
                buckets = [[kv for kv in map_data if kv[0] == k] for k in (0, 1)]
                payloads = context.serializer.dumps_many(
                    sorted(buckets, key=lambda b: HashPartitioner(5)(b[0][0]))
                )
                assert list(filter(None, blocks)) == [frame_block(p) for p in payloads]
                # Empty buckets occupy 0 bytes: the file is the non-empty
                # frames plus the index (6 u64 offsets, u32 R, u32 crc).
                assert path.stat().st_size == sum(map(len, blocks)) + 6 * 8 + 8
        finally:
            context.stop()
