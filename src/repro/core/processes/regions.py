"""RegionBundle and the shared machinery of partition Processes.

A *partition Process* (paper §4.3-4.4) operates per genomic region: it
re-buckets the SAM RDD by PartitionInfo partition id, groups the FASTA
window and the known-VCF records of each region alongside, and joins the
three into a bundle RDD of :class:`RegionBundle` elements.  The Fig. 7
optimizer fuses chains of these Processes by building the bundle RDD once.

A region computes from its bundle alone.  Reads go to the region their
start lies in; the bundle's FASTA window and known sites cover the
region's *halo*, ``[start - HALO_PAD, end + read_span + HALO_PAD)``
clamped to the contig, where ``read_span`` is the longest reference span
of a read (counted by the Repartitioner) and ``HALO_PAD`` the widest
margin a region stage reads past its reads.  A stage that reads past the
halo gets :class:`~repro.formats.fasta.OutsideWindowError`.

``PartitionProcessBase`` implements the build/apply/finalize protocol the
optimizer relies on; concrete Processes only override :meth:`region_task`
(the per-region work, as a function of the bundle alone) and, when they
need a global reduce between build and apply (BQSR's covariate collect),
the :meth:`apply_to_bundle` hook itself.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.cleaner.realign import REACH
from repro.compression.records import logical_size
from repro.core.bundles import PartitionInfoBundle, SAMBundle, VCFBundle
from repro.core.process import Process
from repro.engine.rdd import RDD, FuncPartitioner
from repro.formats.fasta import ReferenceWindow
from repro.formats.sam import SamRecord
from repro.formats.vcf import VcfRecord

if TYPE_CHECKING:
    from repro.core.partitioning import PartitionInfo
    from repro.engine.context import GPFContext
    from repro.formats.fasta import Reference

#: The widest margin a region stage reads past its reads: the realigner's
#: reach (the caller's default active-region padding, 25, lies inside it).
HALO_PAD = REACH


@dataclass(frozen=True)
class RegionBundle:
    """Co-partitioned genomic data for one region ``[start, end)``.

    ``sam_sets`` holds one record tuple per input sample — the paper's
    partition Processes take ``inputSAMList: List(SAMBundle)`` and operate
    on all samples of a cohort in one pass.  Single-sample pipelines use
    the :attr:`sams` view of sample 0.  ``window`` holds the halo's bases
    and ``vcfs`` every known site that overlaps the halo.
    """

    partition_id: int
    contig: str
    start: int
    end: int
    window: ReferenceWindow
    sam_sets: tuple[tuple[SamRecord, ...], ...] = ((),)
    vcfs: tuple[VcfRecord, ...] = ()
    calls: tuple[VcfRecord, ...] = field(default=())

    @property
    def sams(self) -> tuple[SamRecord, ...]:
        """Sample 0's records (the single-sample view)."""
        return self.sam_sets[0] if self.sam_sets else ()

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
            + len(self.window.sequence)
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
    """Common build/apply/finalize protocol for partition Processes.

    The constructor mirrors the paper's ``(name, referencePath, rodMap,
    partitionInfoBundle, inputSAMList, outputs)``.  Every output is an
    ``output_type``; SAM outputs take their input's header."""

    output_type: type = SAMBundle

    def __init__(
        self,
        name: str,
        reference: "Reference",
        rod_map: dict[str, list[VcfRecord]],
        partition_info_bundle: PartitionInfoBundle,
        input_sam_bundles: Sequence[SAMBundle],
        outputs: Sequence,
    ):
        super().__init__(
            name,
            inputs=[partition_info_bundle, *input_sam_bundles],
            outputs=list(outputs),
            input_types=[PartitionInfoBundle] + [SAMBundle] * len(input_sam_bundles),
            output_types=[self.output_type] * len(outputs),
        )
        if self.output_type is SAMBundle:
            for inp, outp in zip(input_sam_bundles, outputs):
                outp.header = inp.header
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

        # One shuffle per input sample; samples stay separate inside the
        # bundle (tagged by sample index) so per-sample tools keep their
        # identity while joint tools can pool.
        sam_parts_per_sample = []
        for bundle in self.input_sam_bundles:
            keyed = bundle.rdd.filter(lambda r: not r.is_unmapped).key_by(
                record_position_key
            )
            sam_parts_per_sample.append(keyed.partition_by(partitioner))

        # FASTA and known-VCF partition RDDs: per region, the halo's window
        # and the sites overlapping it, keyed by the region's start.
        sites = sorted(
            (rec for records in self.rod_map.values() for rec in records),
            key=lambda rec: (rec.contig, rec.pos),
        )
        site_keys = [(rec.contig, rec.pos) for rec in sites]
        longest_site = max((rec.end - rec.pos for rec in sites), default=0)
        fasta_elements, vcf_elements = [], []
        for contig, start, end in _live_regions(info):
            window = ReferenceWindow.of(
                self.reference, contig, start - HALO_PAD, end + info.read_span + HALO_PAD
            )
            fasta_elements.append(((contig, start), (end, window)))
            first = bisect_left(site_keys, (contig, window.start - longest_site))
            last = bisect_left(site_keys, (contig, window.end))
            vcf_elements.extend(
                ((contig, start), rec) for rec in sites[first:last] if rec.end > window.start
            )
        fasta_parts = (
            ctx.parallelize(fasta_elements, max(1, min(len(fasta_elements), 8)))
            .partition_by(partitioner)
        )
        vcf_parts = (
            ctx.parallelize(vcf_elements, max(1, min(max(1, len(vcf_elements)), 8)))
            .partition_by(partitioner)
        )

        def assemble(split: int, parts: tuple) -> list:
            fasta_p, vcf_p, *sam_ps = parts
            if not fasta_p:
                return []  # dead partition (split base id, empty split): no keys
            (contig, start), (end, window) = fasta_p[0]
            sam_sets = tuple(tuple(rec for _, rec in sam_p) for sam_p in sam_ps)
            vcfs = tuple(rec for _, rec in vcf_p)
            return [(split, RegionBundle(split, contig, start, end, window, sam_sets, vcfs))]

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
        """Map the per-region work over the bundle RDD."""
        return bundle_rdd.map_values(self.region_task()).set_name(f"apply:{self.name}")

    def region_task(self) -> Callable[[RegionBundle], RegionBundle]:
        """The per-region work, a function of the bundle alone.  It ships
        with every region task, so it must not close over this Process."""
        raise NotImplementedError

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


def _live_regions(info: "PartitionInfo") -> list[tuple[str, int, int]]:
    """The spans of the partitions that can receive keys: split base ids
    are left out, and so are the empty splits of a contig's short last
    partition, which start past the contig's end."""
    split_bases = info.split_table.entries
    ids = [pid for pid in range(info.base_partitions) if pid not in split_bases]
    for count, start_id in split_bases.values():
        ids.extend(range(start_id, start_id + count))
    spans = [region_span(info, pid) for pid in ids]
    return [(contig, start, end) for contig, start, end in spans if start < end]
