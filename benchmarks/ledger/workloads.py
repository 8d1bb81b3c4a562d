"""The five workloads: their engine configuration, seeded inputs and plans.

Two input sets come from ``repro.sim``.  ``wgs`` is read pairs plus the
reference and known sites; ``clean`` is the same pairs already aligned on
the driver, so the Cleaner stage can be measured without the aligner in
front of it.  ``--seed`` drives the simulators only: the program under
test sees just the generated inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.align.pairing import PairedEndAligner
from repro.caller.evaluation import evaluate_calls
from repro.core.bundles import PartitionInfoBundle, SAMBundle
from repro.core.pipeline import Pipeline
from repro.core.processes import (
    BaseRecalibrationProcess,
    IndelRealignProcess,
    MarkDuplicateProcess,
    ReadRepartitioner,
)
from repro.core.resource import Resource
from repro.engine.context import EngineConfig, GPFContext
from repro.formats.fasta import Reference
from repro.formats.fastq import FastqPair
from repro.formats.sam import SamHeader, SamRecord, coordinate_key
from repro.formats.vcf import VcfRecord, sort_records
from repro.sim import (
    ReadSimConfig,
    ReadSimulator,
    VariantTruth,
    generate_known_sites,
    generate_reference,
    plant_variants,
)

from benchmarks.ledger.spans import SpanLog

#: Pairs fed to one ``align_pairs`` call outside the engine — the size of
#: one aligner task in the ``wgs`` plan, so driver-side alignment peaks
#: at the same memory as the pipeline's own.
ALIGN_BATCH = 100

#: Below this the caller is broken, whatever the seed planted (29 seeds
#: gave 0.65 to 0.96).
F1_FLOOR = 0.4


@dataclass(frozen=True)
class Size:
    """How much data one run processes."""

    contigs: tuple[int, ...]
    #: Exact number of read pairs (the simulation is truncated to it, so
    #: every seed gives the same amount of work).
    pairs: int
    #: ``memory_budget`` of ``clean_codec``: well under its resident set
    #: at this size, so blocks are evicted and re-read.
    clean_budget: int


#: The driver's cap (114 runs in 3420 s) leaves ~30 s per run, set-up
#: included; 400 pairs is what fits three cold repetitions of the
#: slowest workload.  Depth stays at the 6x of the sizing runs.
FULL = Size(contigs=(8_700, 4_600), pairs=400, clean_budget=48 * 1024)
SMOKE = Size(contigs=(3_300, 1_700), pairs=150, clean_budget=16 * 1024)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str  # "wgs" | "clean"
    backend: str
    serializer: str
    budgeted: bool = False
    #: Workload whose configuration is the plain reference this one's
    #: output must equal byte for byte (None: this one is the reference).
    reference: str | None = None

    @property
    def parallel(self) -> bool:
        return self.backend != "serial"

    @property
    def parallelism(self) -> int:
        return 4 if self.inputs == "wgs" else 8

    @property
    def partition_length(self) -> int:
        return 2_500 if self.inputs == "wgs" else 1_000

    def engine_config(self, size: Size, spill_dir: str, trace_dir: str | None) -> EngineConfig:
        return EngineConfig(
            default_parallelism=self.parallelism,
            executor_backend=self.backend,
            num_workers=WORKERS,
            serializer=self.serializer,
            memory_budget=size.clean_budget if self.budgeted else None,
            spill_dir=spill_dir,
            trace_dir=trace_dir,
            cluster_min_workers=WORKERS,
        )


#: Worker threads/processes of the parallel workloads; never above nproc.
WORKERS = 2

WORKLOADS = {
    w.name: w
    for w in (
        Workload("wgs_serial", "wgs", "serial", "gpf"),
        Workload("wgs_process2", "wgs", "process", "gpf", reference="wgs_serial"),
        Workload("wgs_cluster2", "wgs", "cluster", "gpf", reference="wgs_serial"),
        Workload("clean_codec", "clean", "serial", "gpf", budgeted=True, reference="clean_compact"),
        Workload("clean_compact", "clean", "serial", "compact"),
    )
}


@dataclass
class Inputs:
    kind: str
    reference: Reference
    truth: VariantTruth
    known_sites: list[VcfRecord]
    pairs: list[FastqPair]
    #: Driver-side alignment of ``pairs`` (``clean`` only).
    aligned: list[SamRecord] | None = None


def align(reference: Reference, pairs: list[FastqPair], spans: SpanLog) -> list[SamRecord]:
    """Align outside the engine, one aligner-task-sized batch at a time."""
    with spans.span("align.index_build", "align"):
        aligner = PairedEndAligner(reference)
    with spans.span("align.align_pairs", "align", records=len(pairs)):
        records: list[SamRecord] = []
        for i in range(0, len(pairs), ALIGN_BATCH):
            for mates in aligner.align_pairs(pairs[i : i + ALIGN_BATCH]):
                records.extend(mates)
    return records


def make_inputs(kind: str, seed: int, size: Size, spans: SpanLog) -> Inputs:
    with spans.span("sim.generate", "sim"):
        reference = generate_reference(list(size.contigs), seed=seed)
        truth = plant_variants(reference, snp_rate=0.002, indel_rate=0.0003, seed=seed + 1)
        known_sites = generate_known_sites(truth, reference, seed=seed + 2)
        # Simulate a little deeper than 6x and keep exactly `pairs` of the
        # (already shuffled) result: depth ~6x, work identical across seeds.
        pairs = ReadSimulator(
            truth.donor,
            ReadSimConfig(coverage=7.0, seed=seed + 3, duplicate_fraction=0.05),
        ).simulate()
        if len(pairs) < size.pairs:
            raise RuntimeError(f"simulated {len(pairs)} pairs, need {size.pairs}")
        pairs = pairs[: size.pairs]
    inputs = Inputs(kind, reference, truth, known_sites, pairs)
    if kind == "clean":
        inputs.aligned = align(reference, pairs, spans)
    return inputs


@dataclass
class Plan:
    pipeline: Pipeline
    output: Resource
    partition_info: PartitionInfoBundle


def build_plan(workload: Workload, ctx: GPFContext, inputs: Inputs, records: list) -> Plan:
    """The workload's pipeline over ``records`` (pairs, or this
    repetition's own copy of the aligned SAM)."""
    from repro.wgs import build_wgs_pipeline

    if workload.inputs == "wgs":
        handles = build_wgs_pipeline(
            ctx,
            inputs.reference,
            ctx.parallelize(records, workload.parallelism),
            inputs.known_sites,
            partition_length=workload.partition_length,
        )
        return Plan(handles.pipeline, handles.vcf, handles.partition_info)
    reference = inputs.reference
    pipeline = Pipeline("clean", ctx)
    aligned = SAMBundle.defined(
        "alignedSam",
        ctx.parallelize(records, workload.parallelism),
        SamHeader.unsorted(reference.contig_lengths()),
    )
    deduped = SAMBundle.undefined("dedupedSam")
    pipeline.add_process(MarkDuplicateProcess("MarkDuplicate", aligned, deduped))
    partition_info = PartitionInfoBundle.undefined("partitionInfo")
    pipeline.add_process(
        ReadRepartitioner(
            "Repartitioner",
            [deduped],
            partition_info,
            reference.contig_lengths(),
            advised_partition_length=workload.partition_length,
        )
    )
    rod_map = {"dbsnp": inputs.known_sites}
    realigned = SAMBundle.undefined("realignedSam")
    pipeline.add_process(
        IndelRealignProcess("IndelRealign", reference, rod_map, partition_info, [deduped], [realigned])
    )
    recalibrated = SAMBundle.undefined("recalibratedSam")
    pipeline.add_process(
        BaseRecalibrationProcess("BQSR", reference, rod_map, partition_info, [realigned], [recalibrated])
    )
    pipeline.mark_returned(recalibrated)
    return Plan(pipeline, recalibrated, partition_info)


def fresh_records(inputs: Inputs) -> list:
    """What one repetition feeds its plan.  The Cleaner mutates records,
    so every ``clean`` repetition gets its own copies."""
    if inputs.kind == "wgs":
        return inputs.pairs
    return [rec.copy() for rec in inputs.aligned]


def write_output(inputs: Inputs, plan: Plan, collected: list, path: str) -> str:
    """Write the sorted output (VCF or SAM text) and return its sha256."""
    if inputs.kind == "wgs":
        lines = list(plan.output.header.to_lines())
        lines += [r.to_line() for r in sort_records(collected, inputs.reference.contig_names)]
    else:
        key = coordinate_key(SamHeader.unsorted(inputs.reference.contig_lengths()))
        lines = [
            r.to_line() for r in sorted(collected, key=lambda r: (key(r), r.qname, r.flag))
        ]
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def variant_f1(inputs: Inputs, calls: list[VcfRecord]) -> float:
    return evaluate_calls(calls, inputs.truth.records).overall.f1


def check_output(inputs: Inputs, collected: list) -> str | None:
    """Why the output is wrong against what was planted, or None."""
    if inputs.kind == "wgs":
        f1 = variant_f1(inputs, collected)
        if f1 < F1_FLOOR:
            return f"variant F1 {f1:.3f} below {F1_FLOOR} against the planted truth"
        return None
    # The Cleaner neither drops nor invents a mapped read.
    expected = sorted(r.qname for r in inputs.aligned if not r.is_unmapped)
    if sorted(r.qname for r in collected) != expected:
        return "cleaned reads are not the mapped input reads"
    return None
