"""Active region detection.

HaplotypeCaller only assembles where the pile-up disagrees with the
reference.  Per reference position we accumulate an *activity score*:
mismatching bases (weighted by base quality) and indel events from read
CIGARs.  Positions above threshold are dilated by ``padding`` and merged
into :class:`ActiveRegion` windows.

The pile-up runs on arrays: the CIGARs of a task's reads are expanded once
into aligned (reference position, read offset) pairs over the joined SEQ
and QUAL bytes of the task, and each per-position sum is one
``np.bincount``.  The sums are of integers, so they are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.formats.fasta import Bases
from repro.formats.sam import SamRecord


@dataclass(frozen=True, slots=True)
class ActiveRegion:
    contig: str
    start: int
    end: int

    @property
    def span(self) -> int:
        return self.end - self.start


def joined_quals(records: Sequence[SamRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Phred scores of all ``records`` as one array (QUAL bytes - 33), and
    each record's offset into it."""
    lengths = np.fromiter((len(r.qual) for r in records), dtype=np.int64, count=len(records))
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.int64)
    codes = np.frombuffer("".join(r.qual for r in records).encode("ascii"), dtype=np.uint8)
    return codes - np.uint8(33), offsets


def _runs(lengths: np.ndarray, *starts: np.ndarray) -> list[np.ndarray]:
    """The positions covered by runs of ``lengths`` from each of ``starts``."""
    step = np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return [np.repeat(first, lengths) + step for first in starts]


def _columns(rows: list[tuple[int, ...]], width: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(-1, width).T


def build_activity_profiles(
    records: Sequence[SamRecord],
    reference: Bases,
    quals: tuple[np.ndarray, np.ndarray] | None = None,
    padding: int = 0,
) -> dict[str, tuple[int, np.ndarray, np.ndarray]]:
    """Per contig with reads, the summed quality of mismatching bases and
    the indel events at every position of a window.

    The window is the reads' reference span widened by ``padding`` on
    each side and clipped to the contig; each contig maps to the window's
    first position and the two arrays over it.  ``quals`` is
    :func:`joined_quals` of ``records`` when the caller already has it."""
    qual_codes, offsets = quals if quals is not None else joined_quals(records)
    seq_codes = np.frombuffer("".join(r.seq for r in records).encode("ascii"), dtype=np.uint8)
    # Per contig: aligned runs (ref, query offset, length), insertions
    # (ref, length), deletions (ref, length) and the reads' [first, last]
    # reference positions.
    ops: dict[str, tuple[list, list, list, list]] = {}
    for rec, query in zip(records, offsets.tolist()):
        if rec.is_unmapped or rec.is_duplicate or not rec.seq:
            continue
        aligned, inserted, deleted, span = ops.setdefault(rec.rname, ([], [], [], [rec.pos, 0]))
        ref = rec.pos
        for op in rec.cigar:
            kind, length = op.op, op.length
            if kind in "M=X":
                aligned.append((ref, query, length))
                ref += length
                query += length
            elif kind == "I":
                inserted.append((ref, length))
                query += length
            elif kind == "D":
                deleted.append((ref, length))
                ref += length
            elif kind == "S":
                query += length
            elif kind == "N":
                ref += length
        span[0], span[1] = min(span[0], rec.pos), max(span[1], ref)

    profiles = {}
    for name, (aligned, inserted, deleted, (lo, hi)) in ops.items():
        # One base past `hi` holds an insertion after a read's last base.
        window = reference.fetch(name, lo - padding, hi + 1 + padding).encode("ascii")
        first = max(0, lo - padding)
        end = first + len(window)
        # Runs stop at the window's end, which is the contig's end or past
        # every read.
        ref_starts, query_starts, lengths = _columns(aligned, 3)
        ref_pos, query_pos = _runs(np.clip(end - ref_starts, 0, lengths), ref_starts, query_starts)
        ref_pos -= first
        mismatch = np.frombuffer(window, dtype=np.uint8)[ref_pos] != seq_codes[query_pos]
        mismatch_quality = np.bincount(
            ref_pos[mismatch], weights=qual_codes[query_pos[mismatch]], minlength=len(window)
        )
        at, inserted_lengths = _columns(inserted, 2)
        inside = at < end
        del_starts, del_lengths = _columns(deleted, 2)
        (del_pos,) = _runs(np.clip(end - del_starts, 0, del_lengths), del_starts)
        indel_events = np.bincount(
            np.concatenate((at[inside], del_pos)) - first,
            weights=np.concatenate((inserted_lengths[inside], np.ones(len(del_pos)))),
            minlength=len(window),
        )
        profiles[name] = (first, mismatch_quality, indel_events)
    return profiles


def find_active_regions(
    records: Sequence[SamRecord],
    reference: Bases,
    activity_threshold: float = 30.0,
    indel_weight: float = 20.0,
    padding: int = 25,
    max_region_span: int = 300,
    quals: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[ActiveRegion]:
    """Windows where assembly is warranted.

    ``activity_threshold`` is in summed-mismatch-quality units (one
    high-quality mismatching base ~ 35); any indel event is strong
    evidence and is weighted by ``indel_weight``.
    """
    profiles = build_activity_profiles(records, reference, quals, padding)
    regions: list[ActiveRegion] = []
    for contig_name in sorted(profiles):
        first, mismatch_quality, indel_events = profiles[contig_name]
        activity = mismatch_quality + indel_weight * indel_events
        positions = first + np.flatnonzero(activity >= activity_threshold)
        if not len(positions):
            continue
        start = int(positions[0])
        prev = start
        for pos in positions[1:].tolist() + [None]:  # type: ignore[list-item]
            if pos is not None and pos - prev <= 2 * padding and (
                pos - start < max_region_span
            ):
                prev = pos
                continue
            regions.append(
                ActiveRegion(
                    contig_name,
                    max(first, start - padding),
                    min(first + len(mismatch_quality), prev + 1 + padding),
                )
            )
            if pos is not None:
                start = pos
                prev = pos
    return regions
