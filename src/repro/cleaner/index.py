"""Genomic interval index over sorted SAM records (the samtools-index
analogue of the Cleaner stage's "Sort, Index, MarkDuplicate").

A linear bin index: each contig is divided into fixed-width bins; every
record registers in each bin its alignment span touches.  Queries collect
candidate records from the touched bins and post-filter by exact overlap
— O(bins + candidates) instead of a full scan, which is what the caller's
region lookups and the realigner's interval gathering want.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.formats.sam import SamRecord


@dataclass
class SamIndex:
    """Binned index of mapped records."""

    bin_width: int = 1_024
    _bins: dict[tuple[str, int], list[int]] = field(default_factory=dict)
    _records: list[SamRecord] = field(default_factory=list)
    #: Each record's ``end``, summed from its CIGAR once, at build.
    _ends: list[int] = field(default_factory=list)

    @classmethod
    def build(cls, records: list[SamRecord], bin_width: int = 1_024) -> "SamIndex":
        """Index records into fixed-width bins (unmapped records skipped)."""
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        index = cls(bin_width=bin_width)
        index._records = list(records)
        index._ends = [rec.end for rec in index._records]
        for i, rec in enumerate(index._records):
            if rec.is_unmapped:
                continue
            start_bin = rec.pos // bin_width
            end_bin = max(start_bin, (index._ends[i] - 1) // bin_width)
            for b in range(start_bin, end_bin + 1):
                index._bins.setdefault((rec.rname, b), []).append(i)
        return index

    def query(self, contig: str, start: int, end: int) -> list[SamRecord]:
        """Mapped records overlapping [start, end), in input order."""
        if end <= start:
            return []
        seen: set[int] = set()
        out: list[int] = []
        for b in range(start // self.bin_width, max(start // self.bin_width, (end - 1) // self.bin_width) + 1):
            for i in self._bins.get((contig, b), ()):
                if i in seen:
                    continue
                seen.add(i)
                if self._records[i].pos < end and self._ends[i] > start:
                    out.append(i)
        out.sort()
        return [self._records[i] for i in out]

    def depth_at(self, contig: str, pos: int) -> int:
        """Number of mapped, non-duplicate records covering ``pos``."""
        return sum(
            1 for rec in self.query(contig, pos, pos + 1) if not rec.is_duplicate
        )

    def __len__(self) -> int:
        return len(self._records)


@dataclass(frozen=True)
class CoordinateIndex:
    """Sparse (contig, pos) -> record-offset map over *sorted* records.

    The text-file analogue of a BAM linear index: records the offset of
    the first record at or after every ``stride``-th position, enabling
    bisect-based slicing of a coordinate-sorted list without touching the
    records in between.
    """

    contig_offsets: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]

    @classmethod
    def build(cls, sorted_records: list[SamRecord], stride: int = 64) -> "CoordinateIndex":
        """Record anchor offsets every ``stride`` records per contig."""
        if stride <= 0:
            raise ValueError("stride must be positive")
        per_contig: dict[str, tuple[list[int], list[int]]] = {}
        for offset, rec in enumerate(sorted_records):
            if rec.is_unmapped:
                continue
            positions, offsets = per_contig.setdefault(rec.rname, ([], []))
            if not offsets or offset - offsets[-1] >= stride:
                positions.append(rec.pos)
                offsets.append(offset)
        return cls(
            contig_offsets={
                contig: (tuple(p), tuple(o)) for contig, (p, o) in per_contig.items()
            }
        )

    def first_offset_at_or_after(self, contig: str, pos: int) -> int | None:
        """A lower bound on the list offset of records at >= pos."""
        entry = self.contig_offsets.get(contig)
        if entry is None:
            return None
        positions, offsets = entry
        i = bisect_right(positions, pos) - 1
        return offsets[max(0, i)]
