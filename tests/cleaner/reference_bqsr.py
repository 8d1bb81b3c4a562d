"""Reference BQSR for the differential tests: one base at a time.

This is the dict-of-cells table, the per-base count pass and the per-base
apply pass that the array implementation in ``repro.cleaner.bqsr``
replaced, kept here (test side only) as the oracle: the array passes must
produce the same tables, the same ``changed`` count and the same QUAL
strings.  It imports nothing from ``repro.cleaner`` and carries its own
set-based known-site index, so a change there cannot move the oracle
with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.formats.fasta import Reference
from repro.formats.sam import SamRecord
from repro.formats.vcf import VcfRecord


def build_known_sites_index(
    records: Iterable[VcfRecord],
) -> dict[str, set[int]]:
    """Index of known variant positions per contig.

    BQSR uses this mask to skip known polymorphic sites when counting
    mismatches (a mismatch at a dbSNP site is not sequencer error).
    Indels mask every reference base they span.
    """
    index: dict[str, set[int]] = {}
    for rec in records:
        positions = index.setdefault(rec.contig, set())
        positions.update(range(rec.pos, rec.end))
    return index


#: Phred cap after recalibration, matching GATK's practical range.
MAX_RECALIBRATED = 60


def _phred(errors: float, observations: float) -> float:
    """Empirical Phred score with the Bayesian +1/+2 smoothing GATK uses."""
    rate = (errors + 1.0) / (observations + 2.0)
    return float(-10.0 * np.log10(rate))


@dataclass
class RecalibrationTable:
    """Counts of (observations, errors) per covariate bin."""

    #: global
    total_observations: int = 0
    total_errors: int = 0
    #: keyed by reported quality
    by_quality: dict[int, list[int]] = field(default_factory=dict)
    #: keyed by (reported quality, cycle)
    by_cycle: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    #: keyed by (reported quality, dinucleotide)
    by_context: dict[tuple[int, str], list[int]] = field(default_factory=dict)

    def record(self, quality: int, cycle: int, context: str, is_error: bool) -> None:
        self.total_observations += 1
        self.total_errors += int(is_error)
        for table, key in (
            (self.by_quality, quality),
            (self.by_cycle, (quality, cycle)),
            (self.by_context, (quality, context)),
        ):
            cell = table.setdefault(key, [0, 0])  # type: ignore[arg-type]
            cell[0] += 1
            cell[1] += int(is_error)

    def merge(self, other: "RecalibrationTable") -> "RecalibrationTable":
        """Combine two partial tables (the per-partition reduce step)."""
        self.total_observations += other.total_observations
        self.total_errors += other.total_errors
        for mine, theirs in (
            (self.by_quality, other.by_quality),
            (self.by_cycle, other.by_cycle),
            (self.by_context, other.by_context),
        ):
            for key, (obs, err) in theirs.items():  # type: ignore[union-attr]
                cell = mine.setdefault(key, [0, 0])  # type: ignore[union-attr]
                cell[0] += obs
                cell[1] += err
        return self

    # -- recalibration ---------------------------------------------------
    def recalibrate(self, quality: int, cycle: int, context: str) -> int:
        """GATK's hierarchical delta model.

        new Q = global empirical
              + delta(reported quality)
              + delta(cycle | quality)
              + delta(context | quality)
        """
        if self.total_observations == 0:
            return quality
        q_cell = self.by_quality.get(quality)
        if q_cell is None:
            return quality
        q_emp = _phred(q_cell[1], q_cell[0])
        result = q_emp
        # Conditional covariates use raw rates and only fire when the bin
        # has seen real errors: with few observations the smoothing prior
        # would dominate and fabricate large negative deltas.
        q_raw = q_cell[1] / q_cell[0] if q_cell[0] else 0.0
        for table, key in (
            (self.by_cycle, (quality, cycle)),
            (self.by_context, (quality, context)),
        ):
            cell = table.get(key)  # type: ignore[union-attr]
            if cell is None or cell[0] < 100 or cell[1] < 2 or q_raw <= 0:
                continue
            raw_rate = cell[1] / cell[0]
            result += -10.0 * np.log10(raw_rate) - (-10.0 * np.log10(q_raw))
        # Plain min/max: this runs once per base, and np.clip on a Python
        # int builds two arrays to clamp one number.
        return int(min(max(round(result), 1), MAX_RECALIBRATED))


def build_recalibration_table(
    records: list[SamRecord],
    reference: Reference,
    known_sites: list[VcfRecord],
) -> RecalibrationTable:
    """Pass 1: count covariates over aligned, non-duplicate records."""
    mask = build_known_sites_index(known_sites)
    table = RecalibrationTable()
    for rec in records:
        if rec.is_unmapped or rec.is_duplicate or not rec.seq:
            continue
        contig = reference[rec.rname]
        contig_mask = mask.get(rec.rname, frozenset())
        quals = rec.phred_scores
        seq = rec.seq
        read_len = len(seq)
        for ref_pos, query_idx, op in rec.cigar.walk(rec.pos):
            if op not in ("M", "=", "X") or ref_pos is None or query_idx is None:
                continue
            if ref_pos in contig_mask:
                continue
            if ref_pos >= len(contig):
                continue
            ref_base = chr(contig.sequence[ref_pos])
            base = seq[query_idx]
            if ref_base == "N" or base == "N":
                continue
            cycle = read_len - 1 - query_idx if rec.is_reverse else query_idx
            context = seq[query_idx - 1 : query_idx + 1] if query_idx > 0 else "N" + base
            table.record(quals[query_idx], cycle, context, base != ref_base)
    return table


def apply_recalibration(
    records: list[SamRecord], table: RecalibrationTable
) -> int:
    """Pass 2: rewrite quality strings in place; returns bases changed."""
    changed = 0
    for rec in records:
        if rec.is_unmapped or not rec.qual:
            continue
        quals = rec.phred_scores
        seq = rec.seq
        read_len = len(seq)
        new_quals = list(quals)
        for query_idx in range(read_len):
            cycle = read_len - 1 - query_idx if rec.is_reverse else query_idx
            context = (
                seq[query_idx - 1 : query_idx + 1]
                if query_idx > 0
                else "N" + seq[query_idx]
            )
            new_q = table.recalibrate(quals[query_idx], cycle, context)
            if new_q != quals[query_idx]:
                changed += 1
            new_quals[query_idx] = new_q
        rec.qual = "".join(chr(q + 33) for q in new_quals)
    return changed
