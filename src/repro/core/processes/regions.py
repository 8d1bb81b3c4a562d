"""RegionBundle and the shared machinery of partition Processes.

A *partition Process* (paper §4.3-4.4) operates per genomic region: it
re-buckets the SAM RDD by PartitionInfo partition id, groups the FASTA
window and the known-VCF records of each region alongside, and joins the
three into a bundle RDD of :class:`RegionBundle` elements.  The Fig. 7
optimizer fuses chains of these Processes by building the bundle RDD once.

``PartitionProcessBase`` implements the build/apply/finalize protocol the
optimizer relies on; concrete Processes only override
:meth:`transform_region` (pure per-region work) and, when they need a
global reduce between build and apply (BQSR's covariate collect), the
:meth:`apply_to_bundle` hook itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from repro.compression.records import logical_size
from repro.core.bundles import PartitionInfoBundle, SAMBundle, VCFBundle
from repro.core.process import Process
from repro.engine.rdd import RDD, FuncPartitioner
from repro.formats.sam import SamRecord
from repro.formats.vcf import VcfRecord

if TYPE_CHECKING:
    from repro.core.partitioning import PartitionInfo
    from repro.engine.context import GPFContext
    from repro.formats.fasta import Reference


@dataclass(frozen=True)
class RegionBundle:
    """Co-partitioned genomic data for one region.

    ``sam_sets`` holds one record tuple per input sample — the paper's
    partition Processes take ``inputSAMList: List(SAMBundle)`` and operate
    on all samples of a cohort in one pass.  Single-sample pipelines use
    the :attr:`sams` view of sample 0.
    """

    partition_id: int
    contig: str
    start: int
    end: int
    fasta: str
    sam_sets: tuple[tuple[SamRecord, ...], ...] = ((),)
    vcfs: tuple[VcfRecord, ...] = ()
    calls: tuple[VcfRecord, ...] = field(default=())

    @property
    def sams(self) -> tuple[SamRecord, ...]:
        """Sample 0's records (the single-sample view)."""
        return self.sam_sets[0] if self.sam_sets else ()

    @property
    def num_samples(self) -> int:
        return len(self.sam_sets)

    def all_sams(self) -> list[SamRecord]:
        """Every sample's records pooled (what joint calling consumes)."""
        return [rec for sams in self.sam_sets for rec in sams]

    def with_sam_sets(
        self, sam_sets: Sequence[Sequence[SamRecord]]
    ) -> "RegionBundle":
        return replace(self, sam_sets=tuple(tuple(s) for s in sam_sets))

    def with_calls(self, calls: Sequence[VcfRecord]) -> "RegionBundle":
        return replace(self, calls=tuple(calls))

    def logical_bytes(self) -> int:
        """Decoded footprint estimate: the records' ``logical_size``, the
        FASTA window, and the known sites and calls."""
        variants = self.vcfs + self.calls
        return (
            sum(logical_size(sams) for sams in self.sam_sets)
            + len(self.fasta)
            + sum(len(v.contig) + len(v.ref) + len(v.alt) + 96 for v in variants)
        )


def region_span(info: "PartitionInfo", partition_id: int) -> tuple[str, int, int]:
    """(contig, start, end) for a base or split partition id."""
    if partition_id < info.base_partitions:
        return info.partition_span(partition_id)
    for base_pid, (count, start_id) in info.split_table.entries.items():
        if start_id <= partition_id < start_id + count:
            contig, start, end = info.partition_span(base_pid)
            sub_length = info.partition_length // count
            sub_index = partition_id - start_id
            sub_start = start + sub_index * sub_length
            sub_end = end if sub_index == count - 1 else min(end, sub_start + sub_length)
            return (contig, sub_start, sub_end)
    raise ValueError(f"partition id {partition_id} outside the PartitionInfo")


def record_position_key(rec: SamRecord) -> tuple[str, int]:
    return (rec.rname, rec.pos)


class PartitionProcessBase(Process):
    """Common build/apply/finalize protocol for partition Processes."""

    def __init__(
        self,
        name: str,
        reference: "Reference",
        rod_map: dict[str, list[VcfRecord]],
        partition_info_bundle: PartitionInfoBundle,
        input_sam_bundles: Sequence[SAMBundle],
        outputs: Sequence,
        output_types: Sequence[type | None] | None = None,
    ):
        inputs: list = [partition_info_bundle, *input_sam_bundles]
        super().__init__(
            name,
            inputs=inputs,
            outputs=list(outputs),
            input_types=[PartitionInfoBundle]
            + [SAMBundle] * len(input_sam_bundles),
            output_types=output_types,
        )
        self.reference = reference
        self.rod_map = rod_map
        self.partition_info_bundle = partition_info_bundle
        self.input_sam_bundles = list(input_sam_bundles)

    # -- optimizer protocol -----------------------------------------------
    @property
    def is_partition_process(self) -> bool:
        return True

    def build_bundle_rdd(self, ctx: "GPFContext") -> RDD:
        """GroupBy partition id + join into the RegionBundle RDD (Fig. 7a).

        Three shuffles (SAM, FASTA, VCF) plus the co-partitioned join —
        exactly the redundant work the optimizer eliminates for all but
        the first Process of a fused chain.
        """
        info: "PartitionInfo" = self.partition_info_bundle.value
        partitioner = FuncPartitioner(info.num_partitions, info.partition_func())
        reference = self.reference

        # One shuffle per input sample; samples stay separate inside the
        # bundle (tagged by sample index) so per-sample tools keep their
        # identity while joint tools can pool.
        sam_parts_per_sample = []
        for bundle in self.input_sam_bundles:
            keyed = bundle.rdd.filter(lambda r: not r.is_unmapped).key_by(
                record_position_key
            )
            sam_parts_per_sample.append(keyed.partition_by(partitioner))

        # FASTA partition RDD: one (key, window) element per region.
        fasta_elements = []
        for pid in _live_partition_ids(info):
            contig, start, end = region_span(info, pid)
            fasta_elements.append(((contig, start), reference.fetch(contig, start, end)))
        fasta_parts = (
            ctx.parallelize(fasta_elements, max(1, min(len(fasta_elements), 8)))
            .partition_by(partitioner)
        )

        # Known-VCF partition RDD.
        known: list[VcfRecord] = [
            rec for records in self.rod_map.values() for rec in records
        ]
        vcf_parts = (
            ctx.parallelize(
                [((rec.contig, rec.pos), rec) for rec in known],
                max(1, min(max(1, len(known)), 8)),
            ).partition_by(partitioner)
        )

        info_ref = info

        def assemble(split: int, parts: tuple) -> list:
            fasta_p, vcf_p, *sam_ps = parts
            if not fasta_p:
                return []  # dead partition (split base id): carries no keys
            _, fasta_seq = fasta_p[0]
            contig_, start_, end_ = region_span(info_ref, split)
            return [
                (
                    split,
                    RegionBundle(
                        partition_id=split,
                        contig=contig_,
                        start=start_,
                        end=end_,
                        fasta=fasta_seq,
                        sam_sets=tuple(
                            tuple(rec for _, rec in sam_p) for sam_p in sam_ps
                        ),
                        vcfs=tuple(rec for _, rec in vcf_p),
                    ),
                )
            ]

        # Zip the co-partitioned pieces: fasta, vcf, then one SAM RDD per
        # sample, accumulating partition lists into one tuple.
        zipped = fasta_parts.zip_partitions(vcf_parts, lambda f, v: [(f, v)])
        for sam_parts in sam_parts_per_sample:
            zipped = zipped.zip_partitions(
                sam_parts, lambda acc, s: [(*acc[0], s)]
            )
        return zipped.map_partitions_with_index(
            lambda split, part: assemble(split, part[0]) if part else []
        ).set_name(f"bundle:{self.name}")

    def apply_to_bundle(self, bundle_rdd: RDD, ctx: "GPFContext") -> RDD:
        """Map the per-region transform over the bundle RDD."""
        transform = self.transform_region
        return bundle_rdd.map_values(transform).set_name(f"apply:{self.name}")

    def finalize_outputs(self, bundle_rdd: RDD, ctx: "GPFContext") -> None:
        """Define output bundles as lazy views over the bundle RDD.

        SAM outputs pair positionally with input samples (the paper's
        ``outputSAMList``); a VCF output gets the pooled calls.
        """
        sam_index = 0
        for output in self.outputs:
            if isinstance(output, SAMBundle):
                index = sam_index
                sam_index += 1
                output.define(
                    bundle_rdd.flat_map(
                        lambda kv, i=index: list(kv[1].sam_sets[i])
                        if i < len(kv[1].sam_sets)
                        else []
                    ).set_name(f"sam-out:{self.name}[{index}]")
                )
            elif isinstance(output, VCFBundle):
                output.define(
                    bundle_rdd.flat_map(lambda kv: list(kv[1].calls)).set_name(
                        f"vcf-out:{self.name}"
                    )
                )
            else:
                raise TypeError(
                    f"partition process output must be SAM/VCF bundle, got "
                    f"{type(output).__name__}"
                )

    # -- standalone (unoptimized) execution ------------------------------------
    def execute(self, ctx: "GPFContext") -> None:
        """Standalone run: build, apply, persist, finalize."""
        bundle_rdd = self.build_bundle_rdd(ctx)
        bundle_rdd = self.apply_to_bundle(bundle_rdd, ctx)
        bundle_rdd.persist()
        self.finalize_outputs(bundle_rdd, ctx)

    # -- per-region work -------------------------------------------------------
    def transform_region(self, region: RegionBundle) -> RegionBundle:
        """Default: apply :meth:`transform_sample` to every sample."""
        return region.with_sam_sets(
            [self.transform_sample(list(sams), region) for sams in region.sam_sets]
        )

    def transform_sample(
        self, records: list[SamRecord], region: RegionBundle
    ) -> list[SamRecord]:
        raise NotImplementedError


def _live_partition_ids(info: "PartitionInfo") -> list[int]:
    """Partition ids that can actually receive keys (split bases excluded)."""
    out = []
    split_bases = set(info.split_table.entries)
    for pid in range(info.base_partitions):
        if pid not in split_bases:
            out.append(pid)
    for base_pid, (count, start_id) in info.split_table.entries.items():
        out.extend(range(start_id, start_id + count))
    return out
