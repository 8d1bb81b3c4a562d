"""Lazy paired-FASTQ file RDD tests."""

import pytest

from repro.engine.files import FastqPairFileRDD, load_fastq_pair_lazy
from repro.formats.fastq import FastqRecord, write_fastq


@pytest.fixture()
def fastq_paths(tmp_path, read_pairs):
    p1 = str(tmp_path / "r1.fastq")
    p2 = str(tmp_path / "r2.fastq")
    subset = read_pairs[:120]
    write_fastq([p.read1 for p in subset], p1)
    write_fastq([p.read2 for p in subset], p2)
    return p1, p2, subset


class TestFastqPairFile:
    def test_pairs_align_by_index(self, ctx, fastq_paths):
        p1, p2, subset = fastq_paths
        rdd = FastqPairFileRDD(ctx, p1, p2, 4)
        pairs = rdd.collect()
        assert len(pairs) == len(subset)
        for got, expected in zip(pairs, subset):
            assert got.read1.sequence == expected.read1.sequence
            assert got.read2.sequence == expected.read2.sequence
            assert got.read1.name == expected.read1.name

    def test_partition_counts_balanced(self, ctx, fastq_paths):
        p1, p2, subset = fastq_paths
        parts = ctx.run_job(FastqPairFileRDD(ctx, p1, p2, 5))
        sizes = [len(p) for p in parts]
        assert sum(sizes) == len(subset)
        assert max(sizes) - min(sizes) <= 1

    def test_mismatched_files_rejected(self, ctx, fastq_paths, tmp_path):
        p1, _, subset = fastq_paths
        short = str(tmp_path / "short.fastq")
        write_fastq([p.read2 for p in subset[:-3]], short)
        with pytest.raises(ValueError, match="disagree"):
            FastqPairFileRDD(ctx, p1, short, 3)

    def test_more_partitions_than_records(self, ctx, tmp_path):
        p1, p2 = str(tmp_path / "a.fastq"), str(tmp_path / "b.fastq")
        write_fastq([FastqRecord("r0/1", "ACGT", "IIII")], p1)
        write_fastq([FastqRecord("r0/2", "TTGA", "IIII")], p2)
        pairs = FastqPairFileRDD(ctx, p1, p2, 8).collect()
        assert [(p.read1.sequence, p.read2.sequence) for p in pairs] == [
            ("ACGT", "TTGA")
        ]

    def test_empty_files(self, ctx, tmp_path):
        p1, p2 = str(tmp_path / "a.fastq"), str(tmp_path / "b.fastq")
        open(p1, "w").close()
        open(p2, "w").close()
        assert FastqPairFileRDD(ctx, p1, p2, 3).collect() == []

    def test_quality_lines_starting_with_at_not_confused(self, ctx, tmp_path):
        # Quality strings may begin with '@'; record offsets count lines,
        # so they must not be taken for record headers.
        p1, p2 = str(tmp_path / "a.fastq"), str(tmp_path / "b.fastq")
        for path, mate in ((p1, 1), (p2, 2)):
            write_fastq(
                [
                    FastqRecord(f"r{i}/{mate}", "ACGTACGTAC", "@" + "I" * 9)
                    for i in range(50)
                ],
                path,
            )
        pairs = FastqPairFileRDD(ctx, p1, p2, 7).collect()
        assert len(pairs) == 50
        assert all(p.read1.quality.startswith("@") for p in pairs)

    def test_read_time_charged_to_disk(self, ctx, fastq_paths):
        p1, p2, _ = fastq_paths
        FastqPairFileRDD(ctx, p1, p2, 2).collect()
        job = ctx.metrics.job()
        assert sum(s.disk_blocked for s in job.stages) > 0

    def test_invalid_partitions(self, ctx, fastq_paths):
        p1, p2, _ = fastq_paths
        with pytest.raises(ValueError):
            FastqPairFileRDD(ctx, p1, p2, 0)

    def test_helper_uses_default_parallelism(self, ctx, fastq_paths):
        p1, p2, _ = fastq_paths
        rdd = load_fastq_pair_lazy(ctx, p1, p2)
        assert rdd.num_partitions == ctx.config.default_parallelism

    def test_pipeline_runs_from_lazy_files(
        self, ctx, reference, known_sites, fastq_paths
    ):
        from repro.wgs import build_wgs_pipeline

        p1, p2, _ = fastq_paths
        rdd = load_fastq_pair_lazy(ctx, p1, p2, 3)
        handles = build_wgs_pipeline(
            ctx, reference, rdd, known_sites, partition_length=4_000
        )
        handles.pipeline.run()
        assert isinstance(handles.vcf.rdd.collect(), list)
