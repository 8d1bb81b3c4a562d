"""Super-maximal exact match (SMEM) seed extraction.

BWA-MEM seeds alignments with SMEMs: exact read/reference matches that
cannot be extended in either direction and are not contained in a longer
match covering the same read position.  This implementation finds, for a
set of anchor positions in the read, the longest exact match *ending*
there via repeated backward-search extension, then filters out contained
matches — a faithful (if simplified) SMEM definition that preserves the
property the pipeline needs: every alignable read yields at least one
long, low-repetition seed.

:func:`find_seeds_batch` seeds a batch of reads: every ``(read, anchor)``
pair is one lane of a lockstep backward search
(:meth:`FMIndex.extend_lanes`, two LF-table gathers per step), and an
anchor whose match is already known to be contained is never extended.
The containment filter runs over the whole batch as arrays, and every
kept match of every read is located by one suffix-array gather
(:meth:`FMIndex.locate_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.align.fmindex import FMIndex


@dataclass(frozen=True, slots=True)
class Seed:
    """An exact match between read[query_start:query_end] and the index."""

    query_start: int
    query_end: int  # exclusive
    contig: str
    ref_start: int  # forward-strand position of the match start
    is_reverse: bool

    @property
    def length(self) -> int:
        return self.query_end - self.query_start

    def diagonal(self) -> int:
        return self.ref_start - self.query_start


def find_seeds_batch(
    index: FMIndex,
    reads: list[str],
    min_seed_length: int = 19,
    max_hits_per_seed: int = 16,
    anchor_stride: int = 8,
) -> list[list[Seed]]:
    """Seeds for every read of a batch, in read order.

    For anchors spaced ``anchor_stride`` apart (always including the read
    end), the match ending at the anchor is extended leftwards as far as
    the index allows (:func:`extend_anchors_batch`).  Matches of at least
    ``min_seed_length`` that no earlier anchor's kept match contains are
    kept, and up to ``max_hits_per_seed`` occurrences of each are located
    (one :meth:`FMIndex.locate_batch` for the batch).
    """
    ext, _ = extend_anchors_batch(index, reads, min_seed_length, anchor_stride)
    eligible = ext.end - ext.start >= min_seed_length
    # Anchors run from the read end down, so a match is contained exactly
    # when it starts at or after an earlier kept (equivalently: eligible)
    # match of its read.  One running maximum of read * span - start serves
    # the batch: an ineligible match's key sits below its read's eligible
    # keys and above every earlier read's, and every key is above -span.
    span = max(map(len, reads), default=0) + 2
    key = ext.read * span - np.where(eligible, ext.start, span - 1)
    before = np.maximum.accumulate(np.concatenate(([-span], key))[:-1])
    kept = np.flatnonzero(eligible & (key > before))
    lane, contig, ref_start, is_reverse = index.locate_batch(
        ext.lo[kept], ext.hi[kept], ext.end[kept] - ext.start[kept], max_hits_per_seed
    )
    hit = kept[lane]
    names = index.contig_names
    # For reverse hits the query interval refers to the reverse-complemented
    # read; callers align the RC read, so store as-is.
    seeds: list[list[Seed]] = [[] for _ in reads]
    for r, qs, qe, c, pos, rev in zip(
        *(a.tolist() for a in (ext.read[hit], ext.start[hit], ext.end[hit])),
        contig.tolist(), ref_start.tolist(), is_reverse.tolist(),
    ):
        seeds[r].append(Seed(qs, qe, names[c], pos, rev))
    return seeds


class AnchorExtensions(NamedTuple):
    """Per extended anchor, by read and in anchor order (read end first):
    the match ``reads[read][start:end]`` and its interval ``[lo, hi)``."""

    read: np.ndarray
    start: np.ndarray
    end: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def extend_anchors_batch(
    index: FMIndex,
    reads: list[str],
    min_seed_length: int = 19,
    anchor_stride: int = 8,
) -> tuple[AnchorExtensions, int]:
    """Anchor extensions of every read, and the lane-steps that took.

    Two lockstep waves of :meth:`FMIndex.extend_lanes`: first each read's
    end anchor; a read whose first match reaches position 0 keeps the seed
    ``[0, n)``, which contains every later anchor's match, so the second
    wave extends (and returns) the later anchors of the other reads only.
    The step count is this layer's work counter, derived from the match
    starts: one per character matched, plus the failing step of each lane
    that stopped short of its read's start.  It counts the steps of a
    one-lane-at-a-time search, not the gathers :meth:`FMIndex.extend_lanes`
    makes over stopped lanes before it compacts them.
    """
    lengths = np.fromiter(map(len, reads), dtype=np.int64, count=len(reads))
    # One code per character: ``replace`` turns each non-ASCII character
    # into one '?' byte, which stops a lane like any byte off the alphabet.
    codes = index.search_codes("".join(reads).encode("ascii", "replace"))
    offsets = np.cumsum(lengths) - lengths
    # Anchor ends n, n - stride, ... and min_seed_length itself, per read.
    per_read = np.where(
        lengths >= min_seed_length,
        (lengths - min_seed_length + anchor_stride - 1) // anchor_stride + 1,
        0,
    )
    read = np.repeat(np.arange(len(reads)), per_read)
    rank = np.arange(len(read)) - np.repeat(np.cumsum(per_read) - per_read, per_read)
    end = np.maximum(lengths[read] - rank * anchor_stride, min_seed_length)
    # A lane may read back to its read's first base, or to just after the
    # nearest off-alphabet code before its end.
    cuts = np.zeros(len(codes) + 1, dtype=np.int64)
    stops = np.flatnonzero(codes < 0) + 1
    cuts[stops] = stops
    np.maximum.accumulate(cuts, out=cuts)
    absolute_end = offsets[read] + end
    floor = np.maximum(cuts[absolute_end], offsets[read])
    start = end.copy()
    lo, hi = np.zeros((2, len(read)), dtype=np.int64)

    def run_wave(wave: np.ndarray) -> None:
        begun, lo[wave], hi[wave] = index.extend_lanes(
            codes, absolute_end[wave], floor[wave]
        )
        start[wave] = begun - offsets[read[wave]]

    first = rank == 0
    run_wave(np.flatnonzero(first))
    # Later anchors of a read run only when its first match stopped short.
    present = first | (start[first] > 0)[np.cumsum(first) - 1]
    run_wave(np.flatnonzero(present & ~first))

    rows = np.flatnonzero(present)
    steps = int((end - start)[rows].sum() + np.count_nonzero(start[rows] > 0))
    return AnchorExtensions(read[rows], start[rows], end[rows], lo[rows], hi[rows]), steps


def chain_seeds(seeds: list[Seed], max_diagonal_diff: int = 16) -> list[list[Seed]]:
    """Group co-linear seeds into chains.

    Seeds on the same contig/strand whose diagonals differ by at most
    ``max_diagonal_diff`` (allowing small indels) and whose query intervals
    are ordered join one chain; each chain is one candidate alignment.
    """
    by_group: dict[tuple[str, bool], list[Seed]] = {}
    for seed in seeds:
        by_group.setdefault((seed.contig, seed.is_reverse), []).append(seed)

    chains: list[list[Seed]] = []
    for group in by_group.values():
        group.sort(key=lambda s: (s.diagonal(), s.query_start))
        current: list[Seed] = []
        for seed in group:
            if (
                current
                and abs(seed.diagonal() - current[-1].diagonal()) <= max_diagonal_diff
            ):
                current.append(seed)
            else:
                if current:
                    chains.append(current)
                current = [seed]
        if current:
            chains.append(current)
    # Strongest chains first: total seeded query coverage.
    chains.sort(key=lambda c: -sum(s.length for s in c))
    return chains
