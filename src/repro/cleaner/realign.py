"""Local indel realignment (GATK IndelRealigner).

Aligners place each read independently, so reads spanning an indel often
end up with mismatches near the indel instead of a consistent gap.  The
two-step GATK procedure:

1. **RealignerTargetCreator** (:func:`find_realignment_intervals`): scan
   the pile-up for indel-containing CIGARs and mismatch clusters; emit
   merged candidate intervals.
2. **IndelRealigner** (:func:`realign_reads`): for each interval, build
   alternate consensus sequences (reference with each observed indel
   applied), score every overlapping read against the original and each
   consensus, and if a consensus lowers the total mismatch cost, rewrite
   the affected reads' positions/CIGARs against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.formats.cigar import Cigar, CigarOp
from repro.formats.fasta import Bases
from repro.formats.sam import SamRecord


#: Margin of a realignment interval around the indel that opens it.
INTERVAL_PADDING = 10
#: Margin of the reference window around a realignment interval.
WINDOW_PAD = 60
#: How far past a read's aligned bases the realigner reads the reference.
REACH = INTERVAL_PADDING + WINDOW_PAD


@dataclass(frozen=True, slots=True)
class RealignmentInterval:
    contig: str
    start: int
    end: int

    def overlaps(self, rec: SamRecord) -> bool:
        return (
            not rec.is_unmapped
            and rec.rname == self.contig
            and rec.pos < self.end
            and rec.end > self.start
        )


@dataclass(frozen=True, slots=True)
class _ObservedIndel:
    """An indel suggested by a read's CIGAR: at ref position, +ins/-del."""

    pos: int  # reference position where the indel begins
    length: int  # >0 insertion length, <0 deletion length
    inserted: str = ""


def find_realignment_intervals(
    records: Iterable[SamRecord],
    padding: int = INTERVAL_PADDING,
    mismatch_cluster_size: int = 0,
) -> list[RealignmentInterval]:
    """Candidate intervals: around every indel CIGAR, merged when close."""
    raw: list[RealignmentInterval] = []
    for rec in records:
        if rec.is_unmapped or rec.is_duplicate:
            continue
        if rec.cigar.has_indel():
            ref = rec.pos
            for op in rec.cigar:
                if op.op in ("I", "D"):
                    span = op.length if op.op == "D" else 1
                    raw.append(
                        RealignmentInterval(
                            rec.rname,
                            max(0, ref - padding),
                            ref + span + padding,
                        )
                    )
                if op.op in ("M", "D", "N", "=", "X"):
                    ref += op.length
    return merge_intervals(raw)


def merge_intervals(
    intervals: Sequence[RealignmentInterval],
) -> list[RealignmentInterval]:
    """Merge overlapping/adjacent intervals per contig."""
    by_contig: dict[str, list[RealignmentInterval]] = {}
    for iv in intervals:
        by_contig.setdefault(iv.contig, []).append(iv)
    merged: list[RealignmentInterval] = []
    for contig in sorted(by_contig):
        ivs = sorted(by_contig[contig], key=lambda iv: iv.start)
        current = ivs[0]
        for iv in ivs[1:]:
            if iv.start <= current.end:
                current = RealignmentInterval(
                    contig, current.start, max(current.end, iv.end)
                )
            else:
                merged.append(current)
                current = iv
        merged.append(current)
    return merged


def _observed_indels(records: Sequence[SamRecord]) -> list[_ObservedIndel]:
    seen: set[tuple[int, int, str]] = set()
    out: list[_ObservedIndel] = []
    for rec in records:
        if not rec.cigar.has_indel():
            continue
        ref = rec.pos
        query = 0
        for op in rec.cigar:
            if op.op == "I":
                inserted = rec.seq[query : query + op.length]
                key = (ref, op.length, inserted)
                if key not in seen:
                    seen.add(key)
                    out.append(_ObservedIndel(ref, op.length, inserted))
                query += op.length
            elif op.op == "D":
                key = (ref, -op.length, "")
                if key not in seen:
                    seen.add(key)
                    out.append(_ObservedIndel(ref, -op.length))
                ref += op.length
            else:
                if op.op in ("M", "=", "X"):
                    ref += op.length
                    query += op.length
                elif op.op == "S":
                    query += op.length
                elif op.op == "N":
                    ref += op.length
    return out


def _mismatch_cost(read_seq: str, read_quals: list[int], window: str, offset: int) -> int:
    """Sum of base qualities at mismatching positions (GATK's metric)."""
    cost = 0
    for i, base in enumerate(read_seq):
        j = offset + i
        if j < 0 or j >= len(window):
            cost += read_quals[i]
        elif window[j] != base:
            cost += read_quals[i]
    return cost


def realign_reads(
    records: Sequence[SamRecord],
    reference: Bases,
    intervals: Sequence[RealignmentInterval],
    window_pad: int = WINDOW_PAD,
) -> int:
    """Realign reads in the given intervals; returns the realigned count.

    Records are modified in place (pos + CIGAR rewritten).  Only reads
    whose CIGAR currently lacks the consensus indel but whose mismatch
    cost drops under the alternate consensus are touched — matching
    GATK's conservative behaviour.
    """
    realigned = 0
    for interval in intervals:
        group = [r for r in records if interval.overlaps(r) and not r.is_duplicate]
        if len(group) < 2:
            continue
        indels = _observed_indels(group)
        if not indels:
            continue
        window_start = max(0, interval.start - window_pad)
        ref_window = reference.fetch(interval.contig, window_start, interval.end + window_pad)

        for indel in indels:
            consensus, shift_at, shift_by = _apply_indel(
                ref_window, window_start, indel
            )
            for rec in group:
                if rec.cigar.has_indel():
                    continue  # already carries an indel; leave it alone
                quals = rec.phred_scores
                core = _aligned_core(rec)
                if core is None:
                    continue
                core_seq, core_start_ref = core
                old_cost = _mismatch_cost(
                    core_seq, quals, ref_window, core_start_ref - window_start
                )
                new_offset = core_start_ref - window_start
                if core_start_ref > indel.pos:
                    new_offset += shift_by if indel.length < 0 else 0
                new_cost = _best_consensus_cost(
                    core_seq, quals, consensus, new_offset
                )
                if new_cost[0] + 10 < old_cost:
                    _rewrite_record(rec, indel, new_cost[1], window_start, consensus)
                    realigned += 1
    return realigned


def _apply_indel(
    ref_window: str, window_start: int, indel: _ObservedIndel
) -> tuple[str, int, int]:
    """Reference window with the indel applied -> (consensus, at, shift)."""
    at = indel.pos - window_start + 1  # indels act after the anchor base
    at = max(0, min(len(ref_window), at))
    if indel.length > 0:
        return ref_window[:at] + indel.inserted + ref_window[at:], at, indel.length
    deletion = -indel.length
    return ref_window[:at] + ref_window[at + deletion :], at, deletion


def _aligned_core(rec: SamRecord) -> tuple[str, int] | None:
    """The read's M-aligned portion and its reference start (skips clips)."""
    if rec.is_unmapped or not rec.seq:
        return None
    lead = rec.cigar.leading_clip()
    trail = rec.cigar.trailing_clip()
    seq = rec.seq[lead : len(rec.seq) - trail if trail else len(rec.seq)]
    return seq, rec.pos


def _best_consensus_cost(
    seq: str, quals: list[int], consensus: str, around: int, slack: int = 3
) -> tuple[int, int]:
    """Cheapest placement of seq in the consensus near ``around``."""
    best_cost = None
    best_offset = around
    for offset in range(around - slack, around + slack + 1):
        cost = _mismatch_cost(seq, quals, consensus, offset)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_offset = offset
    assert best_cost is not None
    return best_cost, best_offset


def _rewrite_record(
    rec: SamRecord,
    indel: _ObservedIndel,
    consensus_offset: int,
    window_start: int,
    consensus: str,
) -> None:
    """Rewrite pos + CIGAR of a read now aligned against the consensus."""
    lead = rec.cigar.leading_clip()
    trail = rec.cigar.trailing_clip()
    core_len = len(rec.seq) - lead - trail
    indel_at_consensus = indel.pos - window_start + 1
    if indel.length > 0:
        ins_start = indel_at_consensus
        ins_end = indel_at_consensus + indel.length
        # Does the read's core span the insertion?
        if consensus_offset < ins_start and consensus_offset + core_len > ins_end:
            before = ins_start - consensus_offset
            after = core_len - before - indel.length
            ops = []
            if lead:
                ops.append(CigarOp(lead, "S"))
            ops.append(CigarOp(before, "M"))
            ops.append(CigarOp(indel.length, "I"))
            if after > 0:
                ops.append(CigarOp(after, "M"))
            if trail:
                ops.append(CigarOp(trail, "S"))
            rec.pos = window_start + consensus_offset
            rec.cigar = Cigar(ops).normalized()
        else:
            # Entirely on one side: map consensus offset back to reference.
            ref_offset = consensus_offset
            if consensus_offset >= ins_end:
                ref_offset -= indel.length
            rec.pos = window_start + ref_offset
    else:
        deletion = -indel.length
        del_at = indel_at_consensus
        if consensus_offset < del_at and consensus_offset + core_len > del_at:
            before = del_at - consensus_offset
            after = core_len - before
            ops = []
            if lead:
                ops.append(CigarOp(lead, "S"))
            ops.append(CigarOp(before, "M"))
            ops.append(CigarOp(deletion, "D"))
            if after > 0:
                ops.append(CigarOp(after, "M"))
            if trail:
                ops.append(CigarOp(trail, "S"))
            rec.pos = window_start + consensus_offset
            rec.cigar = Cigar(ops).normalized()
        else:
            ref_offset = consensus_offset
            if consensus_offset >= del_at:
                ref_offset += deletion
            rec.pos = window_start + ref_offset
