"""Caller-stage Process: HaplotypeCallerProcess (paper Table 2)."""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.caller.filters import FilterConfig, apply_hard_filters
from repro.caller.haplotype_caller import CallerConfig, HaplotypeCaller
from repro.core.process import Process
from repro.core.bundles import PartitionInfoBundle, SAMBundle, VCFBundle
from repro.core.processes.regions import PartitionProcessBase, RegionBundle
from repro.formats.fasta import Reference
from repro.formats.vcf import VcfHeader, VcfRecord


class HaplotypeCallerProcess(PartitionProcessBase):
    """Call variants per genomic region via assembly + pair-HMM.

    Mirrors ``HaplotypeCallerProcess(name, referencePath, rodMap,
    partitionInfoBundle, inputSAMList, outputVCFBundle, useGVCF)``.
    """

    output_type = VCFBundle

    def __init__(
        self,
        name: str,
        reference: Reference,
        rod_map: dict[str, list[VcfRecord]],
        partition_info_bundle: PartitionInfoBundle,
        input_sam_bundles: Sequence[SAMBundle],
        output_vcf_bundle: VCFBundle,
        use_gvcf: bool = False,
        caller_config: CallerConfig | None = None,
    ):
        super().__init__(
            name, reference, rod_map, partition_info_bundle, input_sam_bundles, [output_vcf_bundle]
        )
        self.config = caller_config or CallerConfig()
        self.config.gvcf = use_gvcf
        output_vcf_bundle.header = VcfHeader(tuple(reference.contig_lengths()))

    def region_task(self):
        return partial(call_region, self.config)


def call_region(config: CallerConfig, region: RegionBundle) -> RegionBundle:
    """Joint-call the region over every sample's pooled reads (the paper's
    caller takes a SAM list) against the region's window."""
    calls = HaplotypeCaller(region.window, config).call(region.all_sams())
    # Reads are placed by their start, so a read that starts in the left
    # neighbour never reaches this region, and calls past the region's
    # end, made from reads that run into the right neighbour, are dropped
    # here for that neighbour to make from its own reads.  A variant near
    # a boundary is so called without the reads that start before it: the
    # VCF can depend on ``partition_length``.
    owned = [c for c in calls if region.start <= c.pos < region.end]
    return region.with_calls(owned)


class VariantFiltrationProcess(Process):
    """Hard-filter a VCF bundle (GATK VariantFiltration analogue).

    Filtered records keep their FILTER reasons; pass ``keep_failing=False``
    to drop them from the output bundle instead.
    """

    def __init__(
        self,
        name: str,
        reference: Reference,
        input_vcf: VCFBundle,
        output_vcf: VCFBundle,
        filter_config: FilterConfig | None = None,
        keep_failing: bool = True,
    ):
        super().__init__(
            name,
            inputs=[input_vcf],
            outputs=[output_vcf],
            input_types=[VCFBundle],
            output_types=[VCFBundle],
        )
        self.reference = reference
        self.input_vcf = input_vcf
        self.output_vcf = output_vcf
        self.filter_config = filter_config or FilterConfig()
        self.keep_failing = keep_failing

    def execute(self, ctx) -> None:
        """Apply hard filters over the input VCF bundle lazily."""
        reference = self.reference
        config = self.filter_config
        keep_failing = self.keep_failing

        def run(records: list) -> list:
            out = apply_hard_filters(records, reference, config)
            if not keep_failing:
                out = [r for r in out if r.filter_ in ("PASS", ".")]
            return out

        self.output_vcf.header = self.input_vcf.header
        self.output_vcf.define(
            self.input_vcf.rdd.map_partitions(run).set_name(f"filter:{self.name}")
        )
