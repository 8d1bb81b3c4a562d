"""Each shuffle partition is read once per pipeline run.

BQSR's covariate count and the final collect of its output are two jobs
over the same region bundle.  Without the bundle cached, the second job
re-reads every shuffle behind the bundle and re-runs each region's
upstream transform; Spark would skip that stage.  The pins count
``ShuffleManager.read`` calls per (shuffle, reduce partition) on the
serial backend.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.bundles import PartitionInfoBundle, SAMBundle
from repro.core.pipeline import Pipeline
from repro.core.processes import (
    BaseRecalibrationProcess,
    IndelRealignProcess,
    MarkDuplicateProcess,
    ReadRepartitioner,
)
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.shuffle import ShuffleManager
from repro.formats.sam import SamHeader
from repro.wgs import build_wgs_pipeline


@pytest.fixture()
def shuffle_reads(monkeypatch):
    """Counts of ``ShuffleManager.read`` calls by (shuffle, reduce partition)."""
    reads: Counter = Counter()
    original = ShuffleManager.read

    def counting_read(self, shuffle_id, reduce_partition, *args, **kwargs):
        reads[(shuffle_id, reduce_partition)] += 1
        return original(self, shuffle_id, reduce_partition, *args, **kwargs)

    monkeypatch.setattr(ShuffleManager, "read", counting_read)
    return reads


def _context(tmp_path, serializer: str) -> GPFContext:
    return GPFContext(
        EngineConfig(
            default_parallelism=4,
            serializer=serializer,
            spill_dir=str(tmp_path / "spill"),
        )
    )


def _clean_plan(ctx, reference, known_sites, records):
    """MarkDuplicate → Repartitioner → IndelRealign → BQSR, as a user writes it."""
    pipeline = Pipeline("clean", ctx)
    aligned = SAMBundle.defined(
        "alignedSam",
        ctx.parallelize([rec.copy() for rec in records], 4),
        SamHeader.unsorted(reference.contig_lengths()),
    )
    deduped = SAMBundle.undefined("dedupedSam")
    pipeline.add_process(MarkDuplicateProcess("MarkDuplicate", aligned, deduped))
    info = PartitionInfoBundle.undefined("partitionInfo")
    pipeline.add_process(
        ReadRepartitioner(
            "Repartitioner", [deduped], info, reference.contig_lengths(),
            advised_partition_length=2_000,
        )
    )
    rod_map = {"dbsnp": known_sites}
    realigned = SAMBundle.undefined("realignedSam")
    pipeline.add_process(
        IndelRealignProcess("IndelRealign", reference, rod_map, info, [deduped], [realigned])
    )
    recalibrated = SAMBundle.undefined("recalibratedSam")
    pipeline.add_process(
        BaseRecalibrationProcess("BQSR", reference, rod_map, info, [realigned], [recalibrated])
    )
    return pipeline, recalibrated


@pytest.mark.parametrize("serializer", ["compact", "gpf"])
@pytest.mark.parametrize("optimize", [True, False])
def test_clean_plan_reads_each_partition_once(
    shuffle_reads, tmp_path, reference, known_sites, aligned_records, optimize, serializer
):
    ctx = _context(tmp_path, serializer)
    try:
        pipeline, output = _clean_plan(ctx, reference, known_sites, aligned_records)
        pipeline.run(optimize=optimize)
        cleaned = output.rdd.collect()
        counters = ctx.telemetry_snapshot()["counters"]
    finally:
        ctx.stop()
    assert len(cleaned) == sum(1 for rec in aligned_records if not rec.is_unmapped)
    assert shuffle_reads, "the plan shuffles"
    assert {key: n for key, n in shuffle_reads.items() if n != 1} == {}
    assert counters["shuffle.bytes_read"] == counters["shuffle.bytes_written"]


def test_wgs_plan_reads_each_partition_once(
    shuffle_reads, tmp_path, reference, known_sites, read_pairs
):
    ctx = _context(tmp_path, "gpf")
    try:
        handles = build_wgs_pipeline(
            ctx, reference, ctx.parallelize(read_pairs[:300], 3), known_sites,
            partition_length=4_000,
        )
        handles.pipeline.run()
        handles.vcf.rdd.collect()
    finally:
        ctx.stop()
    assert shuffle_reads
    assert {key: n for key, n in shuffle_reads.items() if n != 1} == {}
