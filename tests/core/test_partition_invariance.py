"""Output invariant to partitioning (paper §4.3-4.4).

Dynamic partitioning changes where region work runs, not what it
computes: the realigned and the recalibrated SAM must be byte-identical
whatever ``partition_length``, split table, parallelism, serializer or
local backend the run draws.  A region computes from its bundle alone,
so its tasks must not reach the whole reference, and a stage that reads
past the region's halo fails typed.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.align.pairing import PairedEndAligner
from repro.caller.haplotype_caller import CallerConfig
from repro.cleaner.realign import find_realignment_intervals
from repro.core.bundles import PartitionInfoBundle, SAMBundle, VCFBundle
from repro.core.pipeline import Pipeline
from repro.core.processes import (
    BaseRecalibrationProcess,
    HaplotypeCallerProcess,
    IndelRealignProcess,
    MarkDuplicateProcess,
    ReadRepartitioner,
)
from repro.core.processes.caller import call_region
from repro.core.processes.cleaner import count_covariates, realign_region
from repro.core.processes.regions import HALO_PAD, RegionBundle
from repro.dist.shipping import ShipPickler
from repro.engine.context import EngineConfig, GPFContext
from repro.formats.cigar import Cigar
from repro.formats.fasta import Contig, OutsideWindowError, Reference, ReferenceWindow
from repro.formats.sam import SamHeader, SamRecord
from repro.sim import (
    ReadSimConfig,
    ReadSimulator,
    generate_known_sites,
    generate_reference,
    plant_variants,
)
from repro.wgs import build_wgs_pipeline


class Genome:
    def __init__(self, reference, known_sites, aligned):
        self.reference = reference
        self.known_sites = known_sites
        self.aligned = aligned


@pytest.fixture(scope="module")
def genome() -> Genome:
    """A 4.6 kb, two-contig genome with SNPs and indels, ~3.5x in 80
    pairs, aligned once."""
    reference = generate_reference([3_000, 1_600], seed=41)
    truth = plant_variants(reference, snp_rate=0.006, indel_rate=0.004, seed=42)
    known_sites = generate_known_sites(truth, reference, seed=43)
    pairs = ReadSimulator(
        truth.donor, ReadSimConfig(coverage=5.0, seed=44, duplicate_fraction=0.05)
    ).simulate()[:80]
    aligned = [rec for mates in PairedEndAligner(reference).align_pairs(pairs) for rec in mates]
    return Genome(reference, known_sites, aligned)


def clean(genome: Genome, config: EngineConfig, partition_length: int, threshold=None, caller=False):
    """The Cleaner's region stages (and the caller, run but not returned,
    if asked) over the aligned reads: sorted realigned and recalibrated
    SAM text, and the rod_map the plan was given."""
    reference = genome.reference
    with GPFContext(config) as ctx:
        pipeline = Pipeline("clean", ctx)
        aligned = SAMBundle.defined(
            "alignedSam",
            ctx.parallelize([rec.copy() for rec in genome.aligned], config.default_parallelism),
            SamHeader.unsorted(reference.contig_lengths()),
        )
        deduped, realigned, recalibrated = (
            SAMBundle.undefined(name) for name in ("deduped", "realigned", "recalibrated")
        )
        info = PartitionInfoBundle.undefined("partitionInfo")
        rod_map = {"dbsnp": genome.known_sites}
        pipeline.add_process(MarkDuplicateProcess("MarkDuplicate", aligned, deduped))
        pipeline.add_process(
            ReadRepartitioner(
                "Repartitioner", [deduped], info, reference.contig_lengths(),
                advised_partition_length=partition_length, segmentation_threshold=threshold,
            )
        )
        pipeline.add_process(
            IndelRealignProcess("IndelRealign", reference, rod_map, info, [deduped], [realigned])
        )
        pipeline.add_process(
            BaseRecalibrationProcess("BQSR", reference, rod_map, info, [realigned], [recalibrated])
        )
        outputs = [realigned, recalibrated]
        if caller:
            vcf = VCFBundle.undefined("calls")
            pipeline.add_process(
                HaplotypeCallerProcess(
                    "HaplotypeCaller", reference, rod_map, info, [recalibrated], vcf,
                    use_gvcf=True,
                )
            )
            outputs.append(vcf)
        for output in outputs:
            pipeline.mark_returned(output)
        pipeline.run()
        sams = [
            "\n".join(
                r.to_line()
                for r in sorted(bundle.rdd.collect(), key=lambda r: (r.rname, r.pos, r.qname, r.flag))
            )
            for bundle in (realigned, recalibrated)
        ]
        if caller:
            vcf.rdd.collect()
        return sams, rod_map


@pytest.fixture(scope="module")
def one_region(genome):
    """The output of one region per contig, serial, compact."""
    sams, _ = clean(genome, EngineConfig(default_parallelism=1, serializer="compact"), 10_000)
    return sams


@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    partition_length=st.integers(100, 3_500),
    parallelism=st.integers(1, 4),
    threshold=st.none() | st.integers(3, 40),
    serializer=st.sampled_from(["gpf", "compact"]),
    backend=st.sampled_from(["serial", "threads"]),
)
def test_cleaned_sam_is_invariant_to_partitioning(
    genome, one_region, partition_length, parallelism, threshold, serializer, backend
):
    config = EngineConfig(
        default_parallelism=parallelism, serializer=serializer, executor_backend=backend
    )
    realigned, recalibrated = clean(genome, config, partition_length, threshold)[0]
    assert realigned == one_region[0]
    assert recalibrated == one_region[1]


def test_the_net_draws_split_tables(genome):
    """A low segmentation threshold splits partitions: the net's draws
    reach the split table."""
    config = EngineConfig(default_parallelism=2, serializer="compact")
    with GPFContext(config) as ctx:
        deduped = SAMBundle.defined(
            "deduped", ctx.parallelize(genome.aligned, 2), SamHeader.unsorted()
        )
        info = PartitionInfoBundle.undefined("partitionInfo")
        ReadRepartitioner(
            "Repartitioner", [deduped], info, genome.reference.contig_lengths(),
            advised_partition_length=1_000, segmentation_threshold=10,
        ).execute(ctx)
    assert len(info.value.split_table) > 0
    # The longest reference span of a mapped read sizes every halo.
    assert info.value.read_span == max(r.end - r.pos for r in genome.aligned if not r.is_unmapped)


# -- region tasks reach their bundle only ------------------------------------


class _Walker(ShipPickler):
    """Pickles a task as the cluster transport ships it, noting every
    object the pickle reaches."""

    def __init__(self, ctx, split, reached):
        super().__init__(io.BytesIO(), ctx, split)
        self.reached = reached

    def persistent_id(self, obj):
        self.reached.append(obj)
        return super().persistent_id(obj)


def test_region_tasks_reach_no_reference_and_no_rod_map(genome, monkeypatch):
    """Realign, both BQSR passes and the caller: each task's shipped
    closure holds its bundle, never the Reference, a whole Contig or the
    rod_map."""
    reached: list = []
    bodies: list = []
    original = GPFContext.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        execute = self.executor.execute

        def walked(body, task):
            _Walker(self, task.partition, reached).dump((body, task))
            bodies.append(body)
            return execute(body, task)

        self.executor.execute = walked

    monkeypatch.setattr(GPFContext, "__init__", recording_init)
    _, rod_map = clean(
        genome, EngineConfig(default_parallelism=2, serializer="compact"), 700, caller=True
    )
    assert bodies
    assert not [obj for obj in reached if isinstance(obj, (Reference, Contig))]
    assert not [obj for obj in reached if obj is rod_map or obj is rod_map["dbsnp"]]
    # The walk saw the region stages' own code.
    functions = {getattr(obj, "__name__", None) for obj in reached}
    assert {"realign_region", "count_covariates", "recalibrate", "call_region"} <= functions


# -- the halo ---------------------------------------------------------------


def test_each_bundle_holds_its_halo_and_the_sites_over_it(genome):
    config = EngineConfig(default_parallelism=2, serializer="compact")
    reference = genome.reference
    with GPFContext(config) as ctx:
        deduped = SAMBundle.defined(
            "deduped", ctx.parallelize([r.copy() for r in genome.aligned], 2), SamHeader.unsorted()
        )
        info = PartitionInfoBundle.undefined("partitionInfo")
        ReadRepartitioner(
            "Repartitioner", [deduped], info, reference.contig_lengths(),
            advised_partition_length=500, segmentation_threshold=8,
        ).execute(ctx)
        process = IndelRealignProcess(
            "IndelRealign", reference, {"dbsnp": genome.known_sites}, info, [deduped],
            [SAMBundle.undefined("realigned")],
        )
        bundles = [bundle for _, bundle in process.build_bundle_rdd(ctx).collect()]
    read_span = info.value.read_span
    assert len(bundles) > len(reference.contig_names)
    for region in bundles:
        length = len(reference[region.contig])
        window = region.window
        assert window.start == max(0, region.start - HALO_PAD)
        assert window.end == min(length, region.end + read_span + HALO_PAD)
        assert window.sequence == reference.fetch(region.contig, window.start, window.end)
        expected = [
            site for site in genome.known_sites
            if site.contig == region.contig and site.pos < window.end and site.end > window.start
        ]
        assert sorted(region.vcfs, key=lambda s: s.key()) == sorted(expected, key=lambda s: s.key())
        for rec in region.sams:
            assert region.start <= rec.pos < region.end
            assert window.start <= rec.pos and rec.end <= window.end


def test_reference_window_fetches_like_the_reference():
    reference = Reference([Contig("c", b"ACGTACGTAA" * 10), Contig("d", b"ACGT")])
    window = ReferenceWindow.of(reference, "c", 90, 120)
    assert (window.start, window.end) == (90, 100)
    assert window.fetch("c", 92, 200) == reference.fetch("c", 92, 200)
    assert window.fetch("c", 95, 95) == ""
    assert window.fetch("c", 100, 130) == ""  # past the contig, as the reference clips
    for contig, start, end in (("c", 89, 95), ("d", 0, 2)):
        with pytest.raises(OutsideWindowError):
            window.fetch(contig, start, end)


def _read(name: str, pos: int, cigar: str, seq: str) -> SamRecord:
    return SamRecord(name, 0, "c", pos, 60, Cigar.parse(cigar), "*", -1, 0, seq, "I" * len(seq))


@pytest.fixture
def narrow_region() -> RegionBundle:
    """Two reads, one with a deletion, over a window that holds their
    aligned bases but not the realigner's margin or the caller's padding."""
    bases = "ACGTTGCAAC" * 30
    reference = Reference([Contig("c", bases.encode())])
    plain = _read("plain", 100, "40M", bases[100:140])
    gapped = _read("gapped", 100, "20M2D20M", bases[100:120] + bases[122:142])
    snp = _read("snp", 104, "30M", bases[104:115] + ("A" if bases[115] != "A" else "C") + bases[116:134])
    reads = (plain, gapped, snp, snp.copy(), snp.copy())
    assert find_realignment_intervals(reads)
    window = ReferenceWindow.of(reference, "c", 100, 142)
    return RegionBundle(0, "c", 100, 142, window, (reads,))


def test_a_stage_reading_past_its_halo_fails_typed(narrow_region):
    with pytest.raises(OutsideWindowError):
        realign_region(narrow_region)
    with pytest.raises(OutsideWindowError):
        call_region(CallerConfig(activity_threshold=1.0), narrow_region)
    # BQSR reads only the reads' own bases: a window one base short fails.
    short = ReferenceWindow("c", 100, narrow_region.window.sequence[:-1], 300)
    with pytest.raises(OutsideWindowError):
        count_covariates((0, RegionBundle(0, "c", 100, 142, short, narrow_region.sam_sets)))
    count_covariates((0, narrow_region))


# -- the caller's boundary defect ----------------------------------------------


def _bench_pipeline_vcf(partition_length: int) -> set[tuple]:
    """Variant keys on bench_pipeline.py's inputs (150 pairs, 23 kb)."""
    reference = generate_reference([15_000, 8_000], seed=211)
    truth = plant_variants(reference, snp_rate=0.002, indel_rate=0.0003, seed=212)
    known_sites = generate_known_sites(truth, reference, seed=213)
    pairs = ReadSimulator(
        truth.donor, ReadSimConfig(coverage=6.0, seed=214, duplicate_fraction=0.05)
    ).simulate()[:150]
    with GPFContext(EngineConfig(default_parallelism=3, serializer="compact")) as ctx:
        handles = build_wgs_pipeline(
            ctx, reference, ctx.parallelize(pairs, 3), known_sites,
            partition_length=partition_length,
        )
        handles.pipeline.run()
        return {rec.key() for rec in handles.vcf.rdd.collect()}


@pytest.fixture(scope="module")
def boundary_insertion():
    # 1,000 calls the insertion at chr1:13811 (VCF, 1-based).  At 600 a
    # region boundary falls at 13,800, and at 300 three of 17 records go.
    key = ("chr1", 13810, "T", "TCAC")
    assert key in _bench_pipeline_vcf(1_000)
    return key


@pytest.mark.xfail(
    strict=True,
    reason="reads are placed by their start and the caller has no read halo: a "
    "variant just past a region boundary is called without the reads that "
    "start before it",
)
def test_caller_calls_a_variant_just_past_a_region_boundary(boundary_insertion):
    assert boundary_insertion in _bench_pipeline_vcf(600)
