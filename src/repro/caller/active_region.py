"""Active region detection.

HaplotypeCaller only assembles where the pile-up disagrees with the
reference.  Per reference position we accumulate an *activity score*:
mismatching bases (weighted by base quality) and indel events from read
CIGARs.  Positions above threshold are dilated by ``padding`` and merged
into :class:`ActiveRegion` windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formats.fasta import Reference
from repro.formats.sam import SamRecord


@dataclass(frozen=True, slots=True)
class ActiveRegion:
    contig: str
    start: int
    end: int

    @property
    def span(self) -> int:
        return self.end - self.start


@dataclass
class ActivityProfile:
    """Per-position activity evidence over one contig."""

    contig: str
    length: int
    mismatch_quality: np.ndarray = field(init=False)
    indel_events: np.ndarray = field(init=False)
    depth: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.mismatch_quality = np.zeros(self.length, dtype=np.float64)
        self.indel_events = np.zeros(self.length, dtype=np.float64)
        self.depth = np.zeros(self.length, dtype=np.int64)


def build_activity_profiles(
    records: list[SamRecord], reference: Reference
) -> dict[str, ActivityProfile]:
    """Scan records once, accumulating evidence per contig position."""
    profiles: dict[str, ActivityProfile] = {}
    for rec in records:
        if rec.is_unmapped or rec.is_duplicate or not rec.seq:
            continue
        contig = reference[rec.rname]
        profile = profiles.get(rec.rname)
        if profile is None:
            profile = ActivityProfile(rec.rname, len(contig))
            profiles[rec.rname] = profile
        quals = rec.phred_scores
        seq = rec.seq
        ref_cursor = rec.pos
        query_cursor = 0
        for op in rec.cigar:
            if op.op in ("M", "=", "X"):
                end = min(ref_cursor + op.length, len(contig))
                span = end - ref_cursor
                if span > 0:
                    ref_slice = np.frombuffer(
                        contig.sequence[ref_cursor:end], dtype=np.uint8
                    )
                    read_slice = np.frombuffer(
                        seq[query_cursor : query_cursor + span].encode("ascii"),
                        dtype=np.uint8,
                    )
                    mism = ref_slice != read_slice
                    profile.depth[ref_cursor:end] += 1
                    if mism.any():
                        qual_slice = np.asarray(
                            quals[query_cursor : query_cursor + span], dtype=np.float64
                        )
                        profile.mismatch_quality[ref_cursor:end][mism] += qual_slice[
                            mism
                        ]
                ref_cursor += op.length
                query_cursor += op.length
            elif op.op == "I":
                if 0 <= ref_cursor < len(contig):
                    profile.indel_events[ref_cursor] += op.length
                query_cursor += op.length
            elif op.op == "D":
                end = min(ref_cursor + op.length, len(contig))
                profile.indel_events[ref_cursor:end] += 1
                ref_cursor += op.length
            elif op.op == "S":
                query_cursor += op.length
            elif op.op == "N":
                ref_cursor += op.length
    return profiles


def find_active_regions(
    records: list[SamRecord],
    reference: Reference,
    activity_threshold: float = 30.0,
    indel_weight: float = 20.0,
    padding: int = 25,
    max_region_span: int = 300,
) -> list[ActiveRegion]:
    """Windows where assembly is warranted.

    ``activity_threshold`` is in summed-mismatch-quality units (one
    high-quality mismatching base ~ 35); any indel event is strong
    evidence and is weighted by ``indel_weight``.
    """
    profiles = build_activity_profiles(records, reference)
    regions: list[ActiveRegion] = []
    for contig_name in sorted(profiles):
        profile = profiles[contig_name]
        activity = profile.mismatch_quality + indel_weight * profile.indel_events
        hot = activity >= activity_threshold
        if not hot.any():
            continue
        positions = np.flatnonzero(hot)
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
                    max(0, start - padding),
                    min(profile.length, prev + 1 + padding),
                )
            )
            if pos is not None:
                start = pos
                prev = pos
    return regions
