"""Paired-end alignment: pair scoring, proper-pair flags, mate rescue.

The paper aligns *paired-end* reads with BWA because "paired-end reads
lead to much better alignment results in terms of the biology" (§5.2.3) —
this module supplies that behaviour: candidates for both mates are scored
jointly, preferring forward/reverse orientation with an insert size inside
the expected window; a lone mapped mate triggers a Smith-Waterman rescue
of its partner near the mapped position.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.bwamem import (
    AlignerConfig,
    AlignmentCandidate,
    BwaMemAligner,
    unmapped_record,
)
from repro.align.fmindex import reverse_complement
from repro.align.sw_batch import smith_waterman_batch
from repro.formats import flags as F
from repro.formats.cigar import Cigar, CigarOp
from repro.formats.fasta import Reference
from repro.formats.fastq import FastqPair, FastqRecord
from repro.formats.sam import UNMAPPED_POS, SamRecord


@dataclass(frozen=True)
class PairingConfig:
    #: Expected insert-size window (fragment length) for a proper pair.
    min_insert: int = 100
    max_insert: int = 1000
    #: Score bonus for a proper pair, in alignment-score units.
    proper_pair_bonus: int = 20
    #: Half-width of the mate-rescue search window.
    rescue_window: int = 600


class PairedEndAligner:
    """Aligns FASTQ pairs to SAM record pairs."""

    def __init__(
        self,
        reference: Reference,
        config: AlignerConfig | None = None,
        pairing: PairingConfig | None = None,
    ):
        self.single = BwaMemAligner(reference, config)
        self.reference = reference
        self.pairing = pairing or PairingConfig()

    # -- public ------------------------------------------------------------
    def align_pair(self, pair: FastqPair) -> tuple[SamRecord, SamRecord]:
        """Align one pair: joint candidate selection, rescue, flags, TLEN."""
        # Both mates' chains extend through one batched Smith-Waterman DP.
        cands1, cands2 = self.single.candidates_batch(
            [pair.read1.sequence, pair.read2.sequence]
        )
        return self._finish_pair(pair, cands1, cands2)

    def align_pairs(
        self, pairs: list[FastqPair]
    ) -> list[tuple[SamRecord, SamRecord]]:
        """Align a batch of pairs through one candidate pass.

        All ``2N`` mate sequences of the batch extend through a single
        ``sw_batch`` dispatch inside :meth:`BwaMemAligner.candidates_batch`,
        so a partition costs one kernel launch, not one per pair.
        Identical output to mapping :meth:`align_pair` over the batch.
        """
        pairs = pairs if isinstance(pairs, list) else list(pairs)
        if not pairs:
            return []
        sequences: list[str] = []
        for pair in pairs:
            sequences.append(pair.read1.sequence)
            sequences.append(pair.read2.sequence)
        cands = self.single.candidates_batch(sequences)
        return [
            self._finish_pair(pair, cands[2 * i], cands[2 * i + 1])
            for i, pair in enumerate(pairs)
        ]

    def _finish_pair(
        self,
        pair: FastqPair,
        cands1: list[AlignmentCandidate],
        cands2: list[AlignmentCandidate],
    ) -> tuple[SamRecord, SamRecord]:
        """Rescue, joint selection, and record assembly for one pair."""
        if not cands1 and cands2:
            rescued = self._rescue(pair.read1, cands2[0])
            if rescued is not None:
                cands1 = [rescued]
        elif not cands2 and cands1:
            rescued = self._rescue(pair.read2, cands1[0])
            if rescued is not None:
                cands2 = [rescued]

        if not cands1 and not cands2:
            r1 = unmapped_record(pair.read1, F.PAIRED | F.FIRST_IN_PAIR | F.MATE_UNMAPPED)
            r2 = unmapped_record(pair.read2, F.PAIRED | F.SECOND_IN_PAIR | F.MATE_UNMAPPED)
            return r1, r2

        best1, best2, proper = self._choose_pair(cands1, cands2)
        sam1 = self._mate_record(pair.read1, best1, cands1, first=True)
        sam2 = self._mate_record(pair.read2, best2, cands2, first=False)
        self._cross_link(sam1, sam2, proper)
        return sam1, sam2

    # -- pair selection ------------------------------------------------------
    def _choose_pair(
        self,
        cands1: list[AlignmentCandidate],
        cands2: list[AlignmentCandidate],
    ) -> tuple[AlignmentCandidate | None, AlignmentCandidate | None, bool]:
        """Joint selection maximizing combined score with pairing bonus."""
        if not cands1:
            return None, (cands2[0] if cands2 else None), False
        if not cands2:
            return cands1[0], None, False
        best: tuple[int, AlignmentCandidate, AlignmentCandidate, bool] | None = None
        for c1 in cands1[:4]:
            for c2 in cands2[:4]:
                proper = self._is_proper(c1, c2)
                score = c1.score + c2.score
                if proper:
                    score += self.pairing.proper_pair_bonus
                if best is None or score > best[0]:
                    best = (score, c1, c2, proper)
        assert best is not None
        return best[1], best[2], best[3]

    def _is_proper(self, c1: AlignmentCandidate, c2: AlignmentCandidate) -> bool:
        if c1.contig != c2.contig or c1.is_reverse == c2.is_reverse:
            return False
        fwd, rev = (c1, c2) if not c1.is_reverse else (c2, c1)
        if rev.pos < fwd.pos:
            return False
        insert = rev.end - fwd.pos
        return self.pairing.min_insert <= insert <= self.pairing.max_insert

    # -- mate rescue ----------------------------------------------------------
    def _rescue(
        self, read: FastqRecord, mate: AlignmentCandidate
    ) -> AlignmentCandidate | None:
        """Smith-Waterman the (RC of the) unplaced read near its mate."""
        contig = self.reference[mate.contig]
        window_start = max(0, mate.pos - self.pairing.rescue_window)
        window_end = min(len(contig), mate.end + self.pairing.rescue_window)
        ref_window = contig.fetch(window_start, window_end)
        # The rescued mate should sit on the opposite strand.
        is_reverse = not mate.is_reverse
        query = reverse_complement(read.sequence) if is_reverse else read.sequence
        # Unbanded: the mate may sit anywhere in the window.
        (result,) = smith_waterman_batch(
            [(query, ref_window)],
            scoring=self.single.config.scoring,
            band=None,
            work=self.single.sw_work,
        )
        if result.score < self.single.config.min_score:
            return None
        n = len(query)
        ops: list[CigarOp] = []
        if result.query_start > 0:
            ops.append(CigarOp(result.query_start, "S"))
        ops.extend(CigarOp(length, op) for length, op in result.cigar_pairs)
        if result.query_end < n:
            ops.append(CigarOp(n - result.query_end, "S"))
        nm = BwaMemAligner._edit_distance(query, ref_window, result)
        return AlignmentCandidate(
            contig=mate.contig,
            pos=window_start + result.ref_start,
            is_reverse=is_reverse,
            score=result.score,
            cigar=Cigar(ops).normalized(),
            edit_distance=nm,
        )

    # -- record assembly -------------------------------------------------------
    def _mate_record(
        self,
        read: FastqRecord,
        cand: AlignmentCandidate | None,
        all_cands: list[AlignmentCandidate],
        first: bool,
    ) -> SamRecord:
        mate_flag = F.PAIRED | (F.FIRST_IN_PAIR if first else F.SECOND_IN_PAIR)
        if cand is None:
            return unmapped_record(read, mate_flag)
        runner_up = 0
        for other in all_cands:
            if other is not cand:
                runner_up = other.score
                break
        mapq = self.single._mapq(cand.score, runner_up)
        rec = self.single._to_sam(read, cand, mapq)
        rec.flag |= mate_flag
        return rec

    @staticmethod
    def _cross_link(r1: SamRecord, r2: SamRecord, proper: bool) -> None:
        for rec, mate in ((r1, r2), (r2, r1)):
            if mate.is_unmapped:
                rec.flag |= F.MATE_UNMAPPED
                rec.rnext = "*"
                rec.pnext = UNMAPPED_POS
            else:
                rec.rnext = "=" if mate.rname == rec.rname else mate.rname
                rec.pnext = mate.pos
                if mate.is_reverse:
                    rec.flag |= F.MATE_REVERSE
        if proper and not r1.is_unmapped and not r2.is_unmapped:
            r1.flag |= F.PROPER_PAIR
            r2.flag |= F.PROPER_PAIR
            fwd, rev = (r1, r2) if not r1.is_reverse else (r2, r1)
            tlen = rev.end - fwd.pos
            fwd.tlen = tlen
            rev.tlen = -tlen
