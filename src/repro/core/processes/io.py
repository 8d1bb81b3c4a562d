"""File loading Processes and helpers (the paper's ``FileLoader``)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.bundles import FASTQPairBundle, VCFBundle
from repro.core.process import Process
from repro.formats.fastq import pair_reads, read_fastq

if TYPE_CHECKING:
    from repro.engine.context import GPFContext
    from repro.engine.rdd import RDD


def _sink(ctx: "GPFContext", malformed: str):
    return ctx.quarantine if malformed == "quarantine" else None


class FileLoader:
    """Static loaders mirroring ``FileLoader.loadFastqPairToRdd`` etc.

    Every loader takes ``malformed`` — the corrupt-input policy applied
    while parsing: ``"fail"`` (default) raises on the first bad record,
    ``"drop"`` skips bad records silently, ``"quarantine"`` skips them and
    routes the raw text to ``ctx.quarantine`` for reporting.
    """

    @staticmethod
    def load_fastq_pair_to_rdd(
        ctx: "GPFContext",
        path1: str,
        path2: str,
        num_partitions: int | None = None,
        malformed: str = "fail",
    ) -> "RDD":
        sink = _sink(ctx, malformed)
        pairs = list(
            pair_reads(
                read_fastq(path1, malformed, sink),
                read_fastq(path2, malformed, sink),
                malformed,
                sink,
            )
        )
        return ctx.parallelize(pairs, num_partitions)


class LoadFastqPairProcess(Process):
    """A Process wrapper for FASTQ loading, for fully declarative pipelines."""

    def __init__(
        self,
        name: str,
        path1: str,
        path2: str,
        output: FASTQPairBundle,
        num_partitions: int | None = None,
        malformed: str = "fail",
    ):
        super().__init__(
            name, inputs=[], outputs=[output], output_types=[FASTQPairBundle]
        )
        self.path1 = path1
        self.path2 = path2
        self.num_partitions = num_partitions
        self.malformed = malformed

    def execute(self, ctx: "GPFContext") -> None:
        rdd = FileLoader.load_fastq_pair_to_rdd(
            ctx, self.path1, self.path2, self.num_partitions, self.malformed
        )
        self.outputs[0].define(rdd)


class WriteVcfProcess(Process):
    """Collects a VCFBundle and writes a sorted VCF file."""

    def __init__(self, name: str, vcf_bundle: VCFBundle, path: str):
        super().__init__(
            name, inputs=[vcf_bundle], outputs=[], input_types=[VCFBundle]
        )
        self.vcf_bundle = vcf_bundle
        self.path = path

    def execute(self, ctx: "GPFContext") -> None:
        """Collect the VCF bundle and write a sorted VCF file."""
        from repro.formats.vcf import sort_records, write_vcf

        records = self.vcf_bundle.rdd.collect()
        header = self.vcf_bundle.header
        contigs = [name for name, _ in header.contigs]
        write_vcf(header, sort_records(records, contigs), self.path)
