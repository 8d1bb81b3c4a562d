"""Tests for the algorithm-specific Processes (Table 2) on the engine."""

import pytest

from repro.align.pairing import PairedEndAligner
from repro.core.bundles import (
    FASTQPairBundle,
    PartitionInfoBundle,
    SAMBundle,
    VCFBundle,
)
from repro.core.processes import (
    BaseRecalibrationProcess,
    BwaMemProcess,
    HaplotypeCallerProcess,
    IndelRealignProcess,
    MarkDuplicateProcess,
    ReadRepartitioner,
    SortProcess,
    VariantFiltrationProcess,
)
from repro.core.processes.io import FileLoader, LoadFastqPairProcess, WriteVcfProcess
from repro.formats.fastq import write_fastq
from repro.wgs import build_wgs_pipeline


@pytest.fixture()
def aligned_bundle(ctx, reference, read_pairs):
    # Keep every chr1 fragment starting below 4 kb: a contiguous window
    # that contains the simulator's hot-spot *and* whole duplicate groups
    # (copies share the fragment stem in their name).
    def frag_start(pair):
        parts = pair.name.split("_")
        return (parts[1], int(parts[2]))

    subset = [p for p in read_pairs if frag_start(p) < ("chr1", 4_000)]
    subset.sort(key=lambda p: p.name)
    fastq = FASTQPairBundle.defined("fq", ctx.parallelize(subset, 3))
    aligned = SAMBundle.undefined("aligned")
    BwaMemProcess.pair_end("map", reference, fastq, aligned).run(ctx)
    return aligned


class TestBwaMemProcess:
    def test_aligns_all_pairs(self, ctx, reference, read_pairs, aligned_bundle):
        records = aligned_bundle.rdd.collect()
        assert len(records) % 2 == 0 and len(records) > 100  # two mates/pair
        mapped = [r for r in records if not r.is_unmapped]
        assert len(mapped) >= 0.9 * len(records)
        assert aligned_bundle.header.contigs == tuple(reference.contig_lengths())

    def test_mates_carry_pair_flags(self, ctx, aligned_bundle):
        records = aligned_bundle.rdd.collect()
        assert all(r.is_paired for r in records)

    def test_journaled_run_aligns_each_partition_once(
        self, ctx, reference, known_sites, read_pairs, tmp_path, monkeypatch
    ):
        """The journal checkpoints ``align:BwaMapping`` and MarkDuplicate's
        map stage reads it again: the checkpoint files, which the output
        now is, keep the second read from re-aligning every pair."""
        calls = []
        align_pairs = PairedEndAligner.align_pairs

        def counted(self, pairs):
            calls.append(len(pairs))
            return align_pairs(self, pairs)

        monkeypatch.setattr(PairedEndAligner, "align_pairs", counted)
        pairs = read_pairs[:60]
        handles = build_wgs_pipeline(
            ctx, reference, ctx.parallelize(pairs, 3), known_sites,
            partition_length=4_000,
        )
        handles.pipeline.run(journal_dir=str(tmp_path / "journal"))
        handles.vcf.rdd.collect()
        assert sorted(calls) == [20, 20, 20]


class TestSortProcess:
    def test_output_is_coordinate_sorted(self, ctx, aligned_bundle, sam_header):
        from repro.cleaner.sort import is_coordinate_sorted

        out = SAMBundle.undefined("sorted")
        SortProcess("sort", aligned_bundle, out).run(ctx)
        records = out.rdd.collect()
        assert is_coordinate_sorted(records, sam_header)
        assert out.header.sort_order == "coordinate"


class TestMarkDuplicateProcess:
    def test_matches_single_node_reference(self, ctx, aligned_bundle):
        """The distributed marker must agree with the reference algorithm."""
        from repro.cleaner.duplicates import mark_duplicates

        out = SAMBundle.undefined("deduped")
        MarkDuplicateProcess("md", aligned_bundle, out).run(ctx)
        distributed = {
            (r.qname, r.flag & 0x400) for r in out.rdd.collect()
        }
        reference_records = [r.copy() for r in aligned_bundle.rdd.collect()]
        mark_duplicates(reference_records)
        expected = {(r.qname, r.flag & 0x400) for r in reference_records}
        assert distributed == expected

    def test_finds_planted_duplicates(self, ctx, aligned_bundle):
        out = SAMBundle.undefined("deduped")
        MarkDuplicateProcess("md", aligned_bundle, out).run(ctx)
        dup_count = sum(1 for r in out.rdd.collect() if r.is_duplicate)
        assert dup_count > 0  # simulator plants ~8% duplicates


class TestReadRepartitioner:
    def test_produces_partition_info(self, ctx, reference, aligned_bundle):
        info_bundle = PartitionInfoBundle.undefined("info")
        ReadRepartitioner(
            "rp",
            [aligned_bundle],
            info_bundle,
            reference.contig_lengths(),
            advised_partition_length=3_000,
        ).run(ctx)
        info = info_bundle.value
        assert info.num_partitions >= info.base_partitions

    def test_hotspot_partition_gets_split(self, ctx, reference, aligned_bundle):
        # The simulator oversamples chr1[2000:2600] 8x; with a low
        # threshold that partition must be split.
        info_bundle = PartitionInfoBundle.undefined("info")
        ReadRepartitioner(
            "rp",
            [aligned_bundle],
            info_bundle,
            reference.contig_lengths(),
            advised_partition_length=1_000,
            segmentation_threshold=15,
        ).run(ctx)
        info = info_bundle.value
        hotspot_pid = 2  # chr1 partition covering [2000, 3000)
        assert info.split_table.lookup(hotspot_pid) is not None


class TestPartitionChainProcesses:
    @pytest.fixture()
    def chain_setup(self, ctx, reference, known_sites, aligned_bundle):
        info_bundle = PartitionInfoBundle.undefined("info")
        ReadRepartitioner(
            "rp",
            [aligned_bundle],
            info_bundle,
            reference.contig_lengths(),
            advised_partition_length=4_000,
        ).run(ctx)
        return info_bundle, {"dbsnp": known_sites}

    def test_indel_realign_preserves_read_count(
        self, ctx, reference, aligned_bundle, chain_setup
    ):
        info_bundle, rod = chain_setup
        out = SAMBundle.undefined("re")
        IndelRealignProcess(
            "ir", reference, rod, info_bundle, [aligned_bundle], [out]
        ).run(ctx)
        mapped_in = sum(1 for r in aligned_bundle.rdd.collect() if not r.is_unmapped)
        assert len(out.rdd.collect()) == mapped_in

    def test_bqsr_rewrites_qualities(
        self, ctx, reference, aligned_bundle, chain_setup
    ):
        info_bundle, rod = chain_setup
        out = SAMBundle.undefined("recal")
        process = BaseRecalibrationProcess(
            "bqsr", reference, rod, info_bundle, [aligned_bundle], [out]
        )
        process.run(ctx)
        assert process.table is not None
        assert process.table.total_observations > 0
        before = {r.qname: r.qual for r in aligned_bundle.rdd.collect()}
        changed = sum(
            1 for r in out.rdd.collect() if before.get(r.qname) != r.qual
        )
        assert changed > 0

    def test_haplotype_caller_emits_vcf(
        self, ctx, reference, truth, aligned_bundle, chain_setup
    ):
        info_bundle, rod = chain_setup
        vcf = VCFBundle.undefined("vcf")
        HaplotypeCallerProcess(
            "hc", reference, rod, info_bundle, [aligned_bundle], vcf
        ).run(ctx)
        calls = vcf.rdd.collect()
        assert calls
        truth_keys = truth.truth_keys()
        hits = sum(1 for c in calls if c.key() in truth_keys)
        assert hits >= 1  # at 6x coverage over 60 pairs, some truth found


class TestIoProcesses:
    def test_load_fastq_pair(self, ctx, read_pairs, tmp_path):
        p1, p2 = str(tmp_path / "1.fastq"), str(tmp_path / "2.fastq")
        write_fastq([p.read1 for p in read_pairs[:10]], p1)
        write_fastq([p.read2 for p in read_pairs[:10]], p2)
        rdd = FileLoader.load_fastq_pair_to_rdd(ctx, p1, p2, 2)
        assert len(rdd.collect()) == 10

    def test_load_process(self, ctx, read_pairs, tmp_path):
        p1, p2 = str(tmp_path / "1.fastq"), str(tmp_path / "2.fastq")
        write_fastq([p.read1 for p in read_pairs[:5]], p1)
        write_fastq([p.read2 for p in read_pairs[:5]], p2)
        bundle = FASTQPairBundle.undefined("fq")
        LoadFastqPairProcess("load", p1, p2, bundle).run(ctx)
        assert len(bundle.rdd.collect()) == 5

    def test_write_vcf_process(self, ctx, tmp_path):
        from repro.formats.vcf import VcfHeader, VcfRecord, read_vcf

        records = [VcfRecord("chr1", 5, "A", "G", qual=50.0)]
        bundle = VCFBundle.defined(
            "v", ctx.parallelize(records, 1), VcfHeader((("chr1", 100),))
        )
        path = str(tmp_path / "out.vcf")
        WriteVcfProcess("w", bundle, path).run(ctx)
        _, out = read_vcf(path)
        assert out[0].key() == records[0].key()


class TestVariantFiltrationProcess:
    def test_filters_applied_through_pipeline(self, ctx, reference):
        from repro.caller.filters import FilterConfig
        from repro.formats.vcf import VcfHeader, VcfRecord

        raw = [
            VcfRecord("chr1", 100, "A", "G", qual=80.0, depth=20),
            VcfRecord("chr1", 200, "A", "G", qual=5.0, depth=1),
        ]
        in_bundle = VCFBundle.defined(
            "raw", ctx.parallelize(raw, 1), VcfHeader(tuple(reference.contig_lengths()))
        )
        out_bundle = VCFBundle.undefined("filtered")
        VariantFiltrationProcess(
            "vf", reference, in_bundle, out_bundle, FilterConfig()
        ).run(ctx)
        out = sorted(out_bundle.rdd.collect(), key=lambda r: r.pos)
        assert out[0].filter_ == "PASS"
        assert "LowQual" in out[1].filter_

    def test_drop_failing_records(self, ctx, reference):
        from repro.formats.vcf import VcfHeader, VcfRecord

        raw = [
            VcfRecord("chr1", 100, "A", "G", qual=80.0, depth=20),
            VcfRecord("chr1", 200, "A", "G", qual=5.0, depth=1),
        ]
        in_bundle = VCFBundle.defined(
            "raw", ctx.parallelize(raw, 1), VcfHeader(tuple(reference.contig_lengths()))
        )
        out_bundle = VCFBundle.undefined("filtered")
        VariantFiltrationProcess(
            "vf", reference, in_bundle, out_bundle, keep_failing=False
        ).run(ctx)
        out = out_bundle.rdd.collect()
        assert len(out) == 1 and out[0].pos == 100
