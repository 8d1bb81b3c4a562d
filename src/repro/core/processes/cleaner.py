"""Cleaner-stage Processes: Sort, MarkDuplicate, IndelRealign, BQSR."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cleaner.bqsr import (
    RecalibrationTable,
    apply_recalibration,
    build_recalibration_table,
)
from repro.cleaner.duplicates import mark_duplicates
from repro.cleaner.realign import find_realignment_intervals, realign_reads
from repro.core.bundles import SAMBundle
from repro.core.process import Process
from repro.core.processes.regions import PartitionProcessBase, RegionBundle
from repro.formats.sam import SamRecord, coordinate_key

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

    def region_task(self):
        return realign_region


def realign_region(region: RegionBundle) -> RegionBundle:
    """Realign every sample's records against the region's window."""
    new_sets = []
    for sams in region.sam_sets:
        records = [rec.copy() for rec in sams]
        intervals = find_realignment_intervals(records)
        if intervals:
            realign_reads(records, region.window, intervals)
        new_sets.append(records)
    return region.with_sam_sets(new_sets)


class BaseRecalibrationProcess(PartitionProcessBase):
    """BQSR: per-region covariate counting, driver-side merge, re-apply.

    The merge-and-broadcast between the two passes is the serial "Collect
    action after BQSR" the paper discusses in §5.2.2.
    """

    #: Per-sample tables after the count pass (index matches inputs).
    tables: list[RecalibrationTable] | None = None

    @property
    def table(self) -> RecalibrationTable | None:
        """Sample 0's table (single-sample convenience view)."""
        return self.tables[0] if self.tables else None

    def apply_to_bundle(self, bundle_rdd: "RDD", ctx: "GPFContext") -> "RDD":
        """Two passes: count covariates per sample, then recalibrate."""
        num_samples = len(self.input_sam_bundles)

        # Pass 1: per-region, per-sample covariate tables, reduced on the
        # driver (recalibration is per read group / sample in GATK).
        # Two jobs read the bundle: this count and the final collect of the
        # recalibrated output.  Cached, the second reads the count's
        # partitions instead of re-reading the shuffles and re-running
        # every region's upstream transform.
        partials = bundle_rdd.persist().map(count_covariates).set_name(f"count:{self.name}").collect()
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


def count_covariates(kv: tuple) -> list[RecalibrationTable]:
    """BQSR's count pass over one region: a table per sample, masking the
    known sites of the whole halo, so no read's span is left unmasked."""
    region: RegionBundle = kv[1]
    return [
        build_recalibration_table(list(sams), region.window, list(region.vcfs))
        for sams in region.sam_sets
    ]
