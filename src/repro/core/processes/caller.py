"""Caller-stage Process: HaplotypeCallerProcess (paper Table 2)."""

from __future__ import annotations

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
            name,
            reference,
            rod_map,
            partition_info_bundle,
            input_sam_bundles,
            [output_vcf_bundle],
            output_types=[VCFBundle],
        )
        config = caller_config or CallerConfig()
        config.gvcf = use_gvcf
        self.caller = HaplotypeCaller(reference, config)
        output_vcf_bundle.header = VcfHeader(tuple(reference.contig_lengths()))

    def transform_region(self, region: RegionBundle) -> RegionBundle:
        # Joint evidence: all samples' reads over the region pool into one
        # assembly + genotyping pass (the paper's caller takes a SAM list).
        """Joint-call the region over every sample's pooled reads."""
        calls = self.caller.call(region.all_sams())
        # Only keep calls inside the region's own span: reads overlapping
        # the boundary are seen by both neighbouring regions, and this
        # half-open ownership rule deduplicates the output.
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
