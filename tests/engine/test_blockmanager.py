"""Block manager (MEMORY_AND_DISK cache) tests."""

import os

import pytest

from repro.chaos import ChaosPlan, ChaosRule
from repro.engine.blockmanager import BlockManager
from repro.engine.context import EngineConfig, GPFContext


class TestBlockManager:
    def test_put_get_roundtrip(self, tmp_path):
        bm = BlockManager(str(tmp_path))
        bm.put((1, 0), b"hello")
        assert bm.get((1, 0)) == b"hello"
        assert bm.stats.hits == 1

    def test_missing_counts_miss(self, tmp_path):
        bm = BlockManager(str(tmp_path))
        assert bm.get((9, 9)) is None
        assert bm.stats.misses == 1

    def test_lru_eviction_spills_to_disk(self, tmp_path):
        bm = BlockManager(str(tmp_path), memory_limit=25)
        bm.put((1, 0), b"a" * 10)
        bm.put((1, 1), b"b" * 10)
        bm.put((1, 2), b"c" * 10)  # 30 bytes > 25: evict the LRU block
        assert bm.stats.evictions >= 1
        assert bm.stats.disk_blocks >= 1
        # Everything still readable (disk fallback).
        assert bm.get((1, 0)) == b"a" * 10
        assert bm.get((1, 1)) == b"b" * 10
        assert bm.get((1, 2)) == b"c" * 10
        assert bm.stats.disk_reads >= 1

    def test_recently_used_block_survives_eviction(self, tmp_path):
        bm = BlockManager(str(tmp_path), memory_limit=25)
        bm.put((1, 0), b"a" * 10)
        bm.put((1, 1), b"b" * 10)
        bm.get((1, 0))  # touch: (1,0) becomes MRU
        bm.put((1, 2), b"c" * 10)  # forces eviction of (1,1), not (1,0)
        assert (1, 0) in bm._memory
        assert (1, 1) in bm._on_disk

    def test_overwrite_replaces_block(self, tmp_path):
        bm = BlockManager(str(tmp_path))
        bm.put((1, 0), b"old")
        bm.put((1, 0), b"newer")
        assert bm.get((1, 0)) == b"newer"
        assert bm.stats.memory_blocks == 1

    def test_evict_rdd_removes_memory_and_disk(self, tmp_path):
        bm = BlockManager(str(tmp_path), memory_limit=12)
        bm.put((1, 0), b"a" * 10)
        bm.put((1, 1), b"b" * 10)  # spills (1,0)
        bm.put((2, 0), b"c" * 5)
        bm.evict_rdd(1)
        assert not bm.contains((1, 0)) and not bm.contains((1, 1))
        assert bm.contains((2, 0))

    def test_total_bytes_spans_tiers(self, tmp_path):
        bm = BlockManager(str(tmp_path), memory_limit=12)
        bm.put((1, 0), b"a" * 10)
        bm.put((1, 1), b"b" * 9)
        assert bm.total_bytes() == 19
        assert bm.stats.disk_bytes == 10


class TestEngineIntegration:
    def test_persisted_rdd_survives_tiny_memory_limit(self, tmp_path):
        config = EngineConfig(
            spill_dir=str(tmp_path / "s"),
            memory_budget=200,  # far below the data size
            default_parallelism=4,
        )
        with GPFContext(config) as ctx:
            rdd = ctx.parallelize([("x" * 50, i) for i in range(100)], 4).persist()
            first = rdd.collect()
            second = rdd.collect()  # served from cache (memory + disk)
            assert first == second
            stats = ctx.block_manager.stats
            assert stats.evictions > 0
            assert stats.disk_reads > 0

    def test_unbounded_cache_never_evicts(self, tmp_path):
        config = EngineConfig(spill_dir=str(tmp_path / "u"))
        with GPFContext(config) as ctx:
            rdd = ctx.parallelize(list(range(1000)), 4).persist()
            rdd.collect()
            rdd.collect()
            assert ctx.block_manager.stats.evictions == 0

    def test_cache_avoids_recompute_even_when_spilled(self, tmp_path):
        calls = []
        config = EngineConfig(
            spill_dir=str(tmp_path / "r"), memory_budget=50
        )
        with GPFContext(config) as ctx:
            rdd = (
                ctx.parallelize(list(range(200)), 4)
                .map(lambda x: calls.append(x) or ("pad" * 10, x))
                .persist()
            )
            rdd.collect()
            count_after_first = len(calls)
            rdd.collect()
            assert len(calls) == count_after_first  # no recompute


class TestSpillIsACache:
    def test_evicting_blocks_calls_fsync_zero_times(self, tmp_path, monkeypatch):
        calls: list[int] = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd))
        bm = BlockManager(str(tmp_path), memory_limit=10)
        blocks = [bytes([i]) * 10 for i in range(8)]
        for i, blob in enumerate(blocks):
            bm.put((1, i), blob)
        assert bm.stats.evictions == 7
        assert calls == []
        assert [bm.get((1, i)) for i in range(8)] == blocks

    @pytest.mark.parametrize("fault", ["corrupt", "torn"])
    def test_damaged_spill_is_a_miss_and_recomputes(self, tmp_path, fault):
        calls = []
        config = EngineConfig(
            spill_dir=str(tmp_path / "s"),
            memory_budget=1,
            chaos=ChaosPlan(
                seed=1, rules=[ChaosRule(site="block.spill", fault=fault, every=1)]
            ),
        )
        with GPFContext(config) as ctx:
            rdd = (
                ctx.parallelize(list(range(40)), 4)
                .map(lambda x: calls.append(x) or x * 2)
                .persist()
            )
            expected = [x * 2 for x in range(40)]
            assert rdd.collect() == expected
            computed = len(calls)
            assert rdd.collect() == expected
            stats = ctx.block_manager.stats
            assert stats.evictions > 0
            assert stats.corrupt_reads > 0
            assert len(calls) > computed  # recomputed from lineage
