"""Cleaner-stage Processes: Sort, MarkDuplicate, IndelRealign, BQSR."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.cleaner.bqsr import (
    RecalibrationTable,
    apply_recalibration,
    build_recalibration_table,
)
from repro.cleaner.duplicates import mark_duplicates
from repro.cleaner.realign import find_realignment_intervals, realign_reads
from repro.core.bundles import PartitionInfoBundle, SAMBundle
from repro.core.process import Process
from repro.core.processes.regions import PartitionProcessBase, RegionBundle
from repro.formats.fasta import Reference
from repro.formats.sam import SamRecord, coordinate_key
from repro.formats.vcf import VcfRecord

if TYPE_CHECKING:
    from repro.engine.context import GPFContext
    from repro.engine.rdd import RDD


class SortProcess(Process):
    """Coordinate sort (Samtools sort analogue)."""

    def __init__(self, name: str, input_bundle: SAMBundle, output_bundle: SAMBundle):
        super().__init__(
            name,
            inputs=[input_bundle],
            outputs=[output_bundle],
            input_types=[SAMBundle],
            output_types=[SAMBundle],
        )
        self.input_bundle = input_bundle
        self.output_bundle = output_bundle

    def execute(self, ctx: "GPFContext") -> None:
        """Run this tool's RDD plan and define the output bundle."""
        header = self.input_bundle.header
        key = coordinate_key(header)
        sorted_rdd = self.input_bundle.rdd.sort_by(key).set_name(f"sort:{self.name}")
        self.output_bundle.header = header.sorted_by_coordinate()
        self.output_bundle.define(sorted_rdd)


def duplicate_signature(pair: list[SamRecord]) -> tuple:
    """Grouping key shared by duplicates: both mates' 5' site + strand."""
    keys = []
    for rec in pair:
        if rec.is_reverse:
            keys.append((rec.rname, rec.unclipped_end(), True))
        else:
            keys.append((rec.rname, rec.unclipped_start(), False))
    return tuple(sorted(keys))


class MarkDuplicateProcess(Process):
    """Distributed MarkDuplicates (paper Table 2).

    Two shuffles: group mates by read name, then group whole fragments by
    the duplicate signature; each signature group is marked independently
    with the same survivor rule as :func:`repro.cleaner.mark_duplicates`.
    """

    def __init__(self, name: str, input_bundle: SAMBundle, output_bundle: SAMBundle):
        super().__init__(
            name,
            inputs=[input_bundle],
            outputs=[output_bundle],
            input_types=[SAMBundle],
            output_types=[SAMBundle],
        )
        self.input_bundle = input_bundle
        self.output_bundle = output_bundle

    def execute(self, ctx: "GPFContext") -> None:
        """Run this tool's RDD plan and define the output bundle."""
        rdd: "RDD" = self.input_bundle.rdd

        def pair_name(rec: SamRecord) -> str:
            name = rec.qname
            return name[:-2] if name.endswith(("/1", "/2")) else name

        grouped = rdd.key_by(pair_name).group_by_key()

        def by_signature(kv: tuple) -> tuple:
            _, members = kv
            eligible = [
                r
                for r in members
                if not (r.is_unmapped or r.is_secondary or r.is_supplementary)
            ]
            return (duplicate_signature(eligible) if eligible else ("unplaced", kv[0]), members)

        def mark_group(kv: tuple) -> list[SamRecord]:
            _, fragment_lists = kv
            flat = [rec for fragment in fragment_lists for rec in fragment]
            marked, _ = mark_duplicates(flat)
            return marked

        marked_rdd = (
            grouped.map(by_signature)
            .group_by_key()
            .flat_map(mark_group)
            .set_name(f"markdup:{self.name}")
        )
        self.output_bundle.header = self.input_bundle.header
        self.output_bundle.define(marked_rdd.persist())


class IndelRealignProcess(PartitionProcessBase):
    """Per-region indel realignment (paper Table 2)."""

    def __init__(
        self,
        name: str,
        reference: Reference,
        rod_map: dict[str, list[VcfRecord]],
        partition_info_bundle: PartitionInfoBundle,
        input_sam_bundles: Sequence[SAMBundle],
        output_sam_bundles: Sequence[SAMBundle],
    ):
        super().__init__(
            name,
            reference,
            rod_map,
            partition_info_bundle,
            input_sam_bundles,
            output_sam_bundles,
            output_types=[SAMBundle] * len(list(output_sam_bundles)),
        )
        for inp, outp in zip(input_sam_bundles, output_sam_bundles):
            outp.header = inp.header

    def transform_sample(self, records, region: RegionBundle):
        """Realign one sample's records inside the region window."""
        records = [rec.copy() for rec in records]
        intervals = find_realignment_intervals(records)
        if intervals:
            realign_reads(records, self.reference, intervals)
        return records


class BaseRecalibrationProcess(PartitionProcessBase):
    """BQSR: per-region covariate counting, driver-side merge, re-apply.

    The merge-and-broadcast between the two passes is the serial "Collect
    action after BQSR" the paper discusses in §5.2.2.
    """

    def __init__(
        self,
        name: str,
        reference: Reference,
        rod_map: dict[str, list[VcfRecord]],
        partition_info_bundle: PartitionInfoBundle,
        input_sam_bundles: Sequence[SAMBundle],
        output_sam_bundles: Sequence[SAMBundle],
    ):
        super().__init__(
            name,
            reference,
            rod_map,
            partition_info_bundle,
            input_sam_bundles,
            output_sam_bundles,
            output_types=[SAMBundle] * len(list(output_sam_bundles)),
        )
        for inp, outp in zip(input_sam_bundles, output_sam_bundles):
            outp.header = inp.header
        #: Per-sample tables after the count pass (index matches inputs).
        self.tables: list[RecalibrationTable] | None = None

    @property
    def table(self) -> RecalibrationTable | None:
        """Sample 0's table (single-sample convenience view)."""
        return self.tables[0] if self.tables else None

    def apply_to_bundle(self, bundle_rdd: "RDD", ctx: "GPFContext") -> "RDD":
        """Two passes: count covariates per sample, then recalibrate."""
        reference = self.reference
        num_samples = len(self.input_sam_bundles)

        # Pass 1: per-region, per-sample covariate tables, reduced on the
        # driver (recalibration is per read group / sample in GATK).
        def count(kv: tuple) -> list[RecalibrationTable]:
            region: RegionBundle = kv[1]
            return [
                build_recalibration_table(
                    list(sams), reference, list(region.vcfs)
                )
                for sams in region.sam_sets
            ]

        # Two jobs read the bundle: this count and the final collect of the
        # recalibrated output.  Cached, the second reads the count's
        # partitions instead of re-reading the shuffles and re-running
        # every region's upstream transform.
        partials = bundle_rdd.persist().map(count).collect()
        tables = [RecalibrationTable() for _ in range(num_samples)]
        for partial in partials:
            for table, piece in zip(tables, partial):
                table.merge(piece)
        self.tables = tables
        shared = ctx.broadcast(tables)

        # Pass 2: rewrite qualities per region and sample.
        def recalibrate(region: RegionBundle) -> RegionBundle:
            new_sets = []
            for sample_index, sams in enumerate(region.sam_sets):
                records = [rec.copy() for rec in sams]
                apply_recalibration(records, shared.value[sample_index])
                new_sets.append(records)
            return region.with_sam_sets(new_sets)

        return bundle_rdd.map_values(recalibrate).set_name(f"apply:{self.name}")

    def transform_sample(self, records, region: RegionBundle):
        """Realign one sample's records inside the region window."""
        raise AssertionError("BQSR overrides apply_to_bundle directly")
