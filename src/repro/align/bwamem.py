"""BWA-MEM-style seed-chain-extend aligner.

Pipeline per read: SMEM seeds (``seeds``) -> co-linear chains -> banded
Smith-Waterman extension of the best chains (``smith_waterman``) ->
candidate scoring -> SAM record with CIGAR, soft clips, NM (edit
distance), AS (alignment score) and a BWA-like MAPQ derived from the gap
between the best and second-best candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import ne

from repro.align.fmindex import FMIndex, reverse_complement
from repro.align.seeds import Seed, chain_seeds, find_seeds_batch
from repro.align.smith_waterman import ScoringScheme
from repro.align.sw_batch import SwWork, smith_waterman_batch
from repro.formats import flags as F
from repro.formats.cigar import Cigar, CigarOp
from repro.formats.fasta import Reference
from repro.formats.fastq import FastqRecord
from repro.formats.sam import UNMAPPED_POS, SamRecord


@dataclass(frozen=True)
class AlignerConfig:
    min_seed_length: int = 19
    anchor_stride: int = 8
    max_hits_per_seed: int = 16
    max_chains_to_extend: int = 4
    band_width: int = 16
    #: Reference padding beyond the chain's implied window.
    extension_pad: int = 24
    min_score: int = 30
    mapq_scale: float = 6.0
    #: Alternative hits recorded in the XA tag (0 disables, as bwa's -h).
    max_alternative_hits: int = 3
    scoring: ScoringScheme = field(default_factory=ScoringScheme)

    def __post_init__(self) -> None:
        # A zero-length seed matches every suffix-array row: its hits
        # would land anywhere in the reference.
        if self.min_seed_length <= 0:
            raise ValueError(
                f"min_seed_length must be positive, got {self.min_seed_length}"
            )


@dataclass(frozen=True, slots=True)
class AlignmentCandidate:
    """One scored placement of a read."""

    contig: str
    pos: int  # 0-based reference start of the aligned region
    is_reverse: bool
    score: int
    cigar: Cigar
    edit_distance: int

    @property
    def end(self) -> int:
        return self.pos + self.cigar.reference_length()


@dataclass(frozen=True, slots=True)
class _ChainJob:
    """One chain's extension window, ready for the (batched) SW kernel."""

    query: str
    ref_window: str
    window_start: int
    contig: str
    is_reverse: bool


class BwaMemAligner:
    """Single-end alignment against an FM-indexed reference."""

    def __init__(self, reference: Reference, config: AlignerConfig | None = None):
        self.reference = reference
        self.config = config or AlignerConfig()
        self.index = FMIndex(reference)
        #: Running tally of the Smith-Waterman work this aligner did.
        self.sw_work = SwWork()

    # -- public ------------------------------------------------------------
    def candidates(self, sequence: str) -> list[AlignmentCandidate]:
        """All scored candidate placements, best first."""
        return self.candidates_batch([sequence])[0]

    def candidates_batch(
        self, sequences: list[str]
    ) -> list[list[AlignmentCandidate]]:
        """Candidate placements for a batch of reads, best first per read.

        Every anchor of every read in the batch is seeded by ONE lockstep
        FM-index backward search (:func:`find_seeds_batch`), chaining runs
        per read, and every candidate chain of every read is extended in
        ONE vectorized banded Smith-Waterman DP
        (:func:`smith_waterman_batch`) — the extension kernel the paper's
        Fig. 13 profile points at.
        """
        cfg = self.config
        seeds_per_read = find_seeds_batch(
            self.index,
            sequences,
            min_seed_length=cfg.min_seed_length,
            max_hits_per_seed=cfg.max_hits_per_seed,
            anchor_stride=cfg.anchor_stride,
        )
        jobs: list[_ChainJob] = []
        owners: list[int] = []
        for idx, sequence in enumerate(sequences):
            for job in self._chain_jobs(sequence, seeds_per_read[idx]):
                jobs.append(job)
                owners.append(idx)
        results = smith_waterman_batch(
            [(job.query, job.ref_window) for job in jobs],
            scoring=cfg.scoring,
            band=cfg.extension_pad + cfg.band_width,
            work=self.sw_work,
        )
        per_read: list[list[AlignmentCandidate]] = [[] for _ in sequences]
        seen: list[set[tuple[str, int, bool]]] = [set() for _ in sequences]
        for idx, job, result in zip(owners, jobs, results):
            cand = self._candidate_from_result(job, result)
            if cand is None or cand.score < cfg.min_score:
                continue
            key = (cand.contig, cand.pos, cand.is_reverse)
            if key not in seen[idx]:
                seen[idx].add(key)
                per_read[idx].append(cand)
        for cands in per_read:
            cands.sort(key=lambda c: -c.score)
        return per_read

    def align_read(self, record: FastqRecord) -> SamRecord:
        """Best single-end alignment as a SAM record (unmapped if none).

        Near-best alternative placements go into the ``XA`` tag
        (``contig,±pos,CIGAR,NM;`` entries, bwa's convention), so
        downstream tools can see multi-mapping ambiguity.
        """
        cands = self.candidates(record.sequence)
        if not cands:
            return unmapped_record(record)
        best = cands[0]
        runner_up = cands[1].score if len(cands) > 1 else 0
        mapq = self._mapq(best.score, runner_up)
        rec = self._to_sam(record, best, mapq)
        xa = self._xa_tag(cands[1:])
        if xa:
            rec.tags["XA"] = xa
        return rec

    def _xa_tag(self, alternatives: list[AlignmentCandidate]) -> str:
        limit = self.config.max_alternative_hits
        if limit <= 0 or not alternatives:
            return ""
        entries = []
        for cand in alternatives[:limit]:
            strand = "-" if cand.is_reverse else "+"
            entries.append(
                f"{cand.contig},{strand}{cand.pos + 1},{cand.cigar},{cand.edit_distance}"
            )
        return ";".join(entries) + ";"

    # -- internals --------------------------------------------------------
    def _chain_jobs(self, sequence: str, seeds: list[Seed]) -> list[_ChainJob]:
        """Orient and chain one read's seeds; extension jobs for top chains."""
        cfg = self.config
        if not seeds:
            return []
        n = len(sequence)
        rc = reverse_complement(sequence)
        # Reverse-strand seeds refer to the reverse-complemented read:
        # transform their query interval into RC-read coordinates.
        oriented: list[Seed] = []
        for seed in seeds:
            if seed.is_reverse:
                oriented.append(
                    Seed(
                        query_start=n - seed.query_end,
                        query_end=n - seed.query_start,
                        contig=seed.contig,
                        ref_start=seed.ref_start,
                        is_reverse=True,
                    )
                )
            else:
                oriented.append(seed)
        chains = chain_seeds(oriented)
        return [
            self._job_from_chain(chain, sequence, rc)
            for chain in chains[: cfg.max_chains_to_extend]
        ]

    def _job_from_chain(
        self, chain: list[Seed], sequence: str, rc: str
    ) -> _ChainJob:
        cfg = self.config
        is_reverse = chain[0].is_reverse
        query = rc if is_reverse else sequence
        n = len(query)
        anchor = max(chain, key=lambda s: s.length)
        contig = self.reference[anchor.contig]
        # Window of reference that could cover the full read around this
        # chain, padded for indels.
        window_start = anchor.ref_start - anchor.query_start - cfg.extension_pad
        window_end = anchor.ref_start + (n - anchor.query_start) + cfg.extension_pad
        window_start = max(0, window_start)
        window_end = min(len(contig), window_end)
        return _ChainJob(
            query=query,
            ref_window=contig.fetch(window_start, window_end),
            window_start=window_start,
            contig=anchor.contig,
            is_reverse=is_reverse,
        )

    def _candidate_from_result(
        self, job: _ChainJob, result
    ) -> AlignmentCandidate | None:
        if result.score <= 0 or not result.cigar_pairs:
            return None
        n = len(job.query)
        # Soft-clip the unaligned query ends.
        ops: list[CigarOp] = []
        if result.query_start > 0:
            ops.append(CigarOp(result.query_start, "S"))
        ops.extend(CigarOp(length, op) for length, op in result.cigar_pairs)
        if result.query_end < n:
            ops.append(CigarOp(n - result.query_end, "S"))
        cigar = Cigar(ops).normalized()
        pos = job.window_start + result.ref_start
        nm = self._edit_distance(job.query, job.ref_window, result)
        return AlignmentCandidate(
            contig=job.contig,
            pos=pos,
            is_reverse=job.is_reverse,
            score=result.score,
            cigar=cigar,
            edit_distance=nm,
        )

    @staticmethod
    def _edit_distance(query: str, ref_window: str, result) -> int:
        """NM: mismatches within M runs plus inserted/deleted bases.

        An M run costs one string compare, plus one ``map(ne, ...)`` pass
        when it has mismatches (never on an exact-match lane).
        """
        nm = 0
        qi = result.query_start
        ri = result.ref_start
        for length, op in result.cigar_pairs:
            if op == "M":
                q_run = query[qi : qi + length]
                r_run = ref_window[ri : ri + length]
                if q_run != r_run:
                    nm += sum(map(ne, q_run, r_run))
                qi += length
                ri += length
            elif op == "I":
                nm += length
                qi += length
            elif op == "D":
                nm += length
                ri += length
        return nm

    def _mapq(self, best: int, second: int) -> int:
        if best <= 0:
            return 0
        raw = self.config.mapq_scale * (best - second)
        return int(max(0, min(60, raw)))

    def _to_sam(
        self, record: FastqRecord, cand: AlignmentCandidate, mapq: int
    ) -> SamRecord:
        flag = F.REVERSE if cand.is_reverse else 0
        seq = (
            reverse_complement(record.sequence)
            if cand.is_reverse
            else record.sequence
        )
        qual = record.quality[::-1] if cand.is_reverse else record.quality
        return SamRecord(
            qname=record.name,
            flag=flag,
            rname=cand.contig,
            pos=cand.pos,
            mapq=mapq,
            cigar=cand.cigar,
            rnext="*",
            pnext=UNMAPPED_POS,
            tlen=0,
            seq=seq,
            qual=qual,
            tags={"NM": cand.edit_distance, "AS": cand.score},
        )


def unmapped_record(record: FastqRecord, flag_extra: int = 0) -> SamRecord:
    return SamRecord(
        qname=record.name,
        flag=F.UNMAPPED | flag_extra,
        rname="*",
        pos=UNMAPPED_POS,
        mapq=0,
        cigar=Cigar(()),
        rnext="*",
        pnext=UNMAPPED_POS,
        tlen=0,
        seq=record.sequence,
        qual=record.quality,
    )
