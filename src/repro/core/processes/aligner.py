"""The Aligner-stage Process: BwaMemProcess (paper Table 2)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.align.bwamem import AlignerConfig
from repro.align.pairing import PairedEndAligner, PairingConfig
from repro.core.bundles import FASTQPairBundle, SAMBundle
from repro.core.process import Process
from repro.formats.fasta import Reference
from repro.formats.sam import SamHeader

if TYPE_CHECKING:
    from repro.engine.context import GPFContext


class BwaMemProcess(Process):
    """Map paired-end reads to the reference with the BWT aligner.

    Mirrors ``BwaMemProcess.pairEnd(name, referencePath,
    inputFASTQPairBundle, outputSAMBundle)``.  The FM-index is built once
    on the driver and broadcast; tasks share it read-only.
    """

    def __init__(
        self,
        name: str,
        reference: Reference,
        input_bundle: FASTQPairBundle,
        output_bundle: SAMBundle,
        aligner_config: AlignerConfig | None = None,
        pairing_config: PairingConfig | None = None,
    ):
        super().__init__(
            name,
            inputs=[input_bundle],
            outputs=[output_bundle],
            input_types=[FASTQPairBundle],
            output_types=[SAMBundle],
        )
        self.reference = reference
        self.input_bundle = input_bundle
        self.output_bundle = output_bundle
        self.aligner_config = aligner_config
        self.pairing_config = pairing_config

    @classmethod
    def pair_end(
        cls,
        name: str,
        reference: Reference,
        input_bundle: FASTQPairBundle,
        output_bundle: SAMBundle,
        **kwargs,
    ) -> "BwaMemProcess":
        return cls(name, reference, input_bundle, output_bundle, **kwargs)

    def execute(self, ctx: "GPFContext") -> None:
        """Broadcast the aligner and map pairs to SAM records."""
        aligner = PairedEndAligner(
            self.reference, self.aligner_config, self.pairing_config
        )
        shared = ctx.broadcast(aligner)

        def align_partition(pairs: list) -> list:
            return [rec for mates in shared.value.align_pairs(pairs) for rec in mates]

        aligned = self.input_bundle.rdd.map_partitions(align_partition).set_name(
            f"align:{self.name}"
        )
        self.output_bundle.header = SamHeader.unsorted(
            self.reference.contig_lengths()
        )
        self.output_bundle.define(aligned)
