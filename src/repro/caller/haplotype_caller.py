"""HaplotypeCaller driver: active regions -> assembly -> pair-HMM -> VCF.

This is the per-partition callable that GPF's ``HaplotypeCallerProcess``
maps over coordinate-partitioned SAM records.  GVCF mode additionally
emits homozygous-reference block records between variant sites, as the
paper's ``useGVCF`` flag does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.caller.active_region import ActiveRegion, find_active_regions, joined_quals
from repro.cleaner.index import SamIndex
from repro.caller.debruijn import DeBruijnAssembler, Haplotype
from repro.caller.genotyper import Genotyper, genotype_to_vcf
from repro.caller.pairhmm import PairHMM
from repro.formats.fasta import Bases
from repro.formats.sam import SamRecord, with_qual
from repro.formats.vcf import VcfRecord


@dataclass
class CallerConfig:
    activity_threshold: float = 30.0
    region_padding: int = 25
    max_region_span: int = 300
    min_call_qual: float = 20.0
    max_reads_per_region: int = 200
    gvcf: bool = False
    assembler: DeBruijnAssembler = field(default_factory=DeBruijnAssembler)


@dataclass
class _RegionWork:
    """One active region between assembly and genotyping."""

    region: ActiveRegion
    ref_window: str
    haplotypes: list[Haplotype]
    reads: list[tuple[str, np.ndarray]]


class HaplotypeCaller:
    """Calls variants from reads over ``reference``: a whole
    :class:`~repro.formats.fasta.Reference`, or one region's
    :class:`~repro.formats.fasta.ReferenceWindow`."""

    def __init__(self, reference: Bases, config: CallerConfig | None = None):
        self.reference = reference
        self.config = config or CallerConfig()
        self.pairhmm = PairHMM()
        self.genotyper = Genotyper(min_qual=self.config.min_call_qual)

    # -- public -------------------------------------------------------------
    def call(self, records: list[SamRecord]) -> list[VcfRecord]:
        """Variant records for one batch of (roughly sorted) SAM records.

        Every active region is assembled first; one pair-HMM batch then
        scores all their (read, haplotype) pairs; each region is genotyped
        from its own matrix."""
        cfg = self.config
        # Reads without QUAL ("*") are skipped; a QUAL/SEQ length mismatch raises.
        records = with_qual(rec for rec in records if not rec.is_unmapped)
        # One QUAL buffer for the task: the pile-up and every region's reads.
        quals = joined_quals(records)
        regions = find_active_regions(
            records,
            self.reference,
            activity_threshold=cfg.activity_threshold,
            padding=cfg.region_padding,
            max_region_span=cfg.max_region_span,
            quals=quals,
        )
        # One binned index instead of a linear scan per region.
        index = SamIndex.build(records)
        offsets = {id(rec): offset for rec, offset in zip(records, quals[1].tolist())}
        work = [
            w
            for w in (self._assemble(r, index, quals[0], offsets) for r in regions)
            if w is not None
        ]
        matrices = self.pairhmm.likelihood_matrices(
            [(w.reads, [h.sequence for h in w.haplotypes]) for w in work]
        )
        out: list[VcfRecord] = []
        for w, likelihoods in zip(work, matrices):
            call = self.genotyper.call(likelihoods, w.haplotypes)
            out.extend(
                genotype_to_vcf(
                    call,
                    w.haplotypes,
                    w.ref_window,
                    w.region.contig,
                    w.region.start,
                    min_qual=cfg.min_call_qual,
                )
            )
        out.sort(key=lambda r: (r.contig, r.pos))
        if cfg.gvcf:
            out = self._add_reference_blocks(out, records)
        return out

    def _assemble(
        self, region: ActiveRegion, index: SamIndex, quals: np.ndarray, offsets: dict[int, int]
    ) -> _RegionWork | None:
        """The region's reads (with their slices of the task's QUAL buffer)
        and assembled haplotypes; None when there is nothing to genotype."""
        cfg = self.config
        candidates = [
            r for r in index.query(region.contig, region.start, region.end) if not r.is_duplicate
        ]
        reads = candidates[: cfg.max_reads_per_region]
        if not reads:
            return None
        ref_window = self.reference.fetch(region.contig, region.start, region.end)
        haplotypes = cfg.assembler.assemble(ref_window, reads)
        if len(haplotypes) < 2:
            return None
        return _RegionWork(
            region,
            ref_window,
            haplotypes,
            [(r.seq, quals[offsets[id(r)] : offsets[id(r)] + len(r.seq)]) for r in reads],
        )

    # -- GVCF --------------------------------------------------------------
    def _add_reference_blocks(
        self, variants: list[VcfRecord], records: list[SamRecord]
    ) -> list[VcfRecord]:
        """Insert <NON_REF> block records over covered non-variant spans."""
        covered: dict[str, list[tuple[int, int]]] = {}
        for rec in records:
            if rec.is_unmapped or rec.is_duplicate:
                continue
            covered.setdefault(rec.rname, []).append((rec.pos, rec.end))
        out = list(variants)
        variant_positions = {(v.contig, v.pos) for v in variants}
        for contig_name, spans in covered.items():
            spans.sort()
            merged: list[list[int]] = []
            for start, end in spans:
                if merged and start <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], end)
                else:
                    merged.append([start, end])
            for start, end in merged:
                block_start = start
                for pos in sorted(
                    p for (c, p) in variant_positions if c == contig_name
                ):
                    if block_start <= pos < end:
                        if pos > block_start:
                            out.append(self._block_record(contig_name, block_start, pos))
                        block_start = pos + 1
                if block_start < end:
                    out.append(self._block_record(contig_name, block_start, end))
        out.sort(key=lambda r: (r.contig, r.pos))
        return out

    def _block_record(self, contig_name: str, start: int, end: int) -> VcfRecord:
        ref_base = self.reference.fetch(contig_name, start, start + 1)
        if ref_base in ("", "N"):
            ref_base = "A"  # placeholder anchor; block records carry END info
        return VcfRecord(
            contig=contig_name,
            pos=start,
            ref=ref_base,
            alt="<NON_REF>",
            qual=0.0,
            genotype="0/0",
            info={"END": end},
        )
