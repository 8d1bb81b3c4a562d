"""Convenience builder for the paper's test-case WGS pipeline (Fig. 3).

``build_wgs_pipeline`` wires the full Aligner -> Cleaner -> Caller chain:

    FASTQ pairs -> BwaMem -> MarkDuplicate -> ReadRepartitioner
                -> IndelRealign -> BaseRecalibration -> HaplotypeCaller -> VCF

and returns the Pipeline plus the terminal VCF bundle.  This is the same
structure as the user-programming example in the paper's Fig. 3, with the
three partition Processes sharing one PartitionInfoBundle so the Fig. 7
optimization applies to the IndelRealign -> BQSR -> HaplotypeCaller chain.

``run_wgs_files`` is that pipeline over files on disk: the one path
``gpf run`` and the service's job runner share.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caller.haplotype_caller import CallerConfig
from repro.core.bundles import (
    FASTQPairBundle,
    PartitionInfoBundle,
    SAMBundle,
    VCFBundle,
)
from repro.core.pipeline import Pipeline
from repro.core.processes import (
    BaseRecalibrationProcess,
    BwaMemProcess,
    HaplotypeCallerProcess,
    IndelRealignProcess,
    MarkDuplicateProcess,
    ReadRepartitioner,
)
from repro.engine.context import GPFContext
from repro.engine.files import load_fastq_pair_lazy
from repro.formats.fasta import Reference, read_fasta
from repro.formats.vcf import VcfRecord, read_vcf, sort_records, write_vcf


@dataclass
class WgsPipelineHandles:
    """Every bundle of the constructed pipeline, for inspection."""

    pipeline: Pipeline
    fastq: FASTQPairBundle
    aligned: SAMBundle
    deduped: SAMBundle
    partition_info: PartitionInfoBundle
    realigned: SAMBundle
    recalibrated: SAMBundle
    vcf: VCFBundle


def build_wgs_pipeline(
    ctx: GPFContext,
    reference: Reference,
    fastq_pairs_rdd,
    known_sites: list[VcfRecord],
    partition_length: int = 5_000,
    use_gvcf: bool = False,
    caller_config: CallerConfig | None = None,
    name: str = "wgs",
) -> WgsPipelineHandles:
    """Assemble the standard WGS pipeline over an existing FASTQ-pair RDD."""
    pipeline = Pipeline(name, ctx)

    fastq = FASTQPairBundle.defined("fastqPair", fastq_pairs_rdd)
    aligned = SAMBundle.undefined("alignedSam")
    pipeline.add_process(BwaMemProcess.pair_end("BwaMapping", reference, fastq, aligned))

    deduped = SAMBundle.undefined("dedupedSam")
    pipeline.add_process(MarkDuplicateProcess("MarkDuplicate", aligned, deduped))

    partition_info = PartitionInfoBundle.undefined("partitionInfo")
    pipeline.add_process(
        ReadRepartitioner(
            "Repartitioner",
            [deduped],
            partition_info,
            reference.contig_lengths(),
            advised_partition_length=partition_length,
        )
    )

    rod_map = {"dbsnp": known_sites}
    realigned = SAMBundle.undefined("realignedSam")
    pipeline.add_process(
        IndelRealignProcess(
            "IndelRealign", reference, rod_map, partition_info, [deduped], [realigned]
        )
    )

    recalibrated = SAMBundle.undefined("recalibratedSam")
    pipeline.add_process(
        BaseRecalibrationProcess(
            "BQSR", reference, rod_map, partition_info, [realigned], [recalibrated]
        )
    )

    vcf = VCFBundle.undefined("resultVcf")
    pipeline.add_process(
        HaplotypeCallerProcess(
            "HaplotypeCaller",
            reference,
            rod_map,
            partition_info,
            [recalibrated],
            vcf,
            use_gvcf=use_gvcf,
            caller_config=caller_config,
        )
    )

    # The caller reads the VCF bundle after the run; gpfcheck's dead-output
    # rule (GPF004) must not flag it.
    pipeline.mark_returned(vcf)

    return WgsPipelineHandles(
        pipeline=pipeline,
        fastq=fastq,
        aligned=aligned,
        deduped=deduped,
        partition_info=partition_info,
        realigned=realigned,
        recalibrated=recalibrated,
        vcf=vcf,
    )


def run_wgs_files(
    ctx: GPFContext,
    reference_path: str,
    fastq1: str,
    fastq2: str,
    partitions: int,
    *,
    known_sites: str | None = None,
    output: str | None = None,
    partition_length: int = 5_000,
    use_gvcf: bool = False,
    malformed: str = "fail",
    optimize: bool = True,
    journal_dir: str | None = None,
    should_cancel=None,
    name: str = "wgs",
) -> tuple[WgsPipelineHandles, list[VcfRecord]]:
    """Run the WGS pipeline over files; returns its handles and the calls.

    Reads the reference and the known sites, loads the FASTQ pair lazily,
    builds and runs the pipeline, collects the calls and, when ``output``
    is given, writes them as a sorted VCF.  ``malformed`` is the
    bad-record policy of every parser (``"quarantine"`` routes bad records
    to ``ctx.quarantine``).
    """
    sink = ctx.quarantine if malformed == "quarantine" else None
    reference = read_fasta(reference_path)
    known: list[VcfRecord] = []
    if known_sites:
        _, known = read_vcf(known_sites, malformed, sink)
    rdd = load_fastq_pair_lazy(ctx, fastq1, fastq2, partitions, malformed=malformed)
    handles = build_wgs_pipeline(
        ctx,
        reference,
        rdd,
        known,
        partition_length=partition_length,
        use_gvcf=use_gvcf,
        name=name,
    )
    handles.pipeline.run(
        optimize=optimize, journal_dir=journal_dir, should_cancel=should_cancel
    )
    calls = handles.vcf.rdd.collect()
    if output:
        write_vcf(
            handles.vcf.header, sort_records(calls, reference.contig_names), output
        )
    return handles, calls


@dataclass
class CohortPipelineHandles:
    """Bundles of a multi-sample (cohort) pipeline."""

    pipeline: Pipeline
    fastqs: list[FASTQPairBundle]
    aligned: list[SAMBundle]
    deduped: list[SAMBundle]
    partition_info: PartitionInfoBundle
    realigned: list[SAMBundle]
    recalibrated: list[SAMBundle]
    vcf: VCFBundle


def build_cohort_pipeline(
    ctx: GPFContext,
    reference: Reference,
    sample_rdds: list,
    known_sites: list[VcfRecord],
    partition_length: int = 5_000,
    use_gvcf: bool = False,
    caller_config: CallerConfig | None = None,
    name: str = "cohort",
) -> CohortPipelineHandles:
    """Multi-sample pipeline: per-sample Aligner + MarkDuplicate, then the
    partition-Process chain over the whole cohort at once.

    This is what the paper's ``inputSAMList: List(SAMBundle)`` signatures
    are for (Table 2): one ReadRepartitioner balances partitions over all
    samples together; IndelRealign and BQSR process each sample inside the
    shared bundle RDD (BQSR keeps per-sample covariate tables); the caller
    genotypes the pooled cohort evidence into one VCF.
    """
    if not sample_rdds:
        raise ValueError("cohort needs at least one sample")
    pipeline = Pipeline(name, ctx)

    fastqs: list[FASTQPairBundle] = []
    aligned: list[SAMBundle] = []
    deduped: list[SAMBundle] = []
    for i, rdd in enumerate(sample_rdds):
        fastq = FASTQPairBundle.defined(f"fastqPair[{i}]", rdd)
        fastqs.append(fastq)
        sam = SAMBundle.undefined(f"alignedSam[{i}]")
        aligned.append(sam)
        pipeline.add_process(
            BwaMemProcess.pair_end(f"BwaMapping[{i}]", reference, fastq, sam)
        )
        dedup = SAMBundle.undefined(f"dedupedSam[{i}]")
        deduped.append(dedup)
        pipeline.add_process(MarkDuplicateProcess(f"MarkDuplicate[{i}]", sam, dedup))

    partition_info = PartitionInfoBundle.undefined("partitionInfo")
    pipeline.add_process(
        ReadRepartitioner(
            "Repartitioner",
            deduped,
            partition_info,
            reference.contig_lengths(),
            advised_partition_length=partition_length,
        )
    )

    rod_map = {"dbsnp": known_sites}
    realigned = [SAMBundle.undefined(f"realignedSam[{i}]") for i in range(len(deduped))]
    pipeline.add_process(
        IndelRealignProcess(
            "IndelRealign", reference, rod_map, partition_info, deduped, realigned
        )
    )

    recalibrated = [
        SAMBundle.undefined(f"recalibratedSam[{i}]") for i in range(len(deduped))
    ]
    pipeline.add_process(
        BaseRecalibrationProcess(
            "BQSR", reference, rod_map, partition_info, realigned, recalibrated
        )
    )

    vcf = VCFBundle.undefined("cohortVcf")
    pipeline.add_process(
        HaplotypeCallerProcess(
            "HaplotypeCaller",
            reference,
            rod_map,
            partition_info,
            recalibrated,
            vcf,
            use_gvcf=use_gvcf,
            caller_config=caller_config,
        )
    )

    pipeline.mark_returned(vcf)

    return CohortPipelineHandles(
        pipeline=pipeline,
        fastqs=fastqs,
        aligned=aligned,
        deduped=deduped,
        partition_info=partition_info,
        realigned=realigned,
        recalibrated=recalibrated,
        vcf=vcf,
    )
