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
(:meth:`FMIndex.extend_left_batch`), and an anchor whose match is already
known to be contained is never extended.  Each kept match is located by
one suffix-array slice (:meth:`FMIndex.locate`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.fmindex import FMIndex

#: One anchor's extension: ``(start, end, lo, hi)`` — the match
#: read[start:end] and its suffix-array interval.
Extension = tuple[int, int, int, int]


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
    kept, and up to ``max_hits_per_seed`` occurrences of each are located.
    """
    extensions, _ = extend_anchors_batch(index, reads, min_seed_length, anchor_stride)
    return [
        _kept_seeds(index, read_extensions, min_seed_length, max_hits_per_seed)
        for read_extensions in extensions
    ]


def extend_anchors_batch(
    index: FMIndex,
    reads: list[str],
    min_seed_length: int = 19,
    anchor_stride: int = 8,
) -> tuple[list[list[Extension]], int]:
    """Anchor extensions of every read, and the lane-steps that took.

    Runs in two lockstep waves.  The first extends each read's first anchor
    (the read end).  A read whose first match reaches position 0 keeps the
    seed ``[0, n)``, which contains every later anchor's match whatever its
    extension, so the second wave extends the remaining anchors of the
    other reads only.  Each read's list is in anchor order, without the
    skipped anchors.  The step count (one per lane per backward-search
    step, one lane of :meth:`FMIndex.extend_left_batch`) is the
    deterministic work counter of this layer.
    """
    lengths = [len(read) for read in reads]
    # One code per character: ``replace`` turns each non-ASCII character
    # into one '?' byte, which stops a lane like any byte off the alphabet.
    codes = index.search_codes("".join(reads).encode("ascii", "replace"))
    read_offsets = np.cumsum([0] + lengths[:-1], dtype=np.int64)
    anchors = [
        _anchors(n, min_seed_length, anchor_stride) if n >= min_seed_length else []
        for n in lengths
    ]
    extensions: list[list[Extension]] = [[] for _ in reads]

    def run_wave(lanes: list[tuple[int, int]]) -> int:
        if not lanes:
            return 0
        read_ids, ends = np.asarray(lanes, dtype=np.int64).T
        starts, los, his, steps = _extend_lanes(
            index, codes, read_offsets[read_ids], ends
        )
        for (read_id, end), start, lo, hi in zip(
            lanes, starts.tolist(), los.tolist(), his.tolist()
        ):
            extensions[read_id].append((start, end, lo, hi))
        return steps

    steps = run_wave([(i, ends[0]) for i, ends in enumerate(anchors) if ends])
    steps += run_wave(
        [
            (i, end)
            for i, ends in enumerate(anchors)
            if ends and extensions[i][0][0] > 0
            for end in ends[1:]
        ]
    )
    return extensions, steps


def _extend_lanes(
    index: FMIndex, codes: np.ndarray, read_offsets: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Extend lanes left in lockstep until each interval would empty or the
    lane reaches its read's first base; compacts the active set each step.

    Lane ``i`` reads ``codes`` leftwards from ``read_offsets[i] + ends[i] - 1``.
    Returns the final ``(start, lo, hi)`` arrays and the lane-steps taken.
    """
    starts = ends.copy()
    los = np.zeros(len(ends), dtype=np.int64)
    his = np.full(len(ends), index.text_length, dtype=np.int64)
    active = np.flatnonzero(starts > 0)
    steps = 0
    while active.size:
        steps += int(active.size)
        new_lo, new_hi = index.extend_left_batch(
            codes[read_offsets[active] + starts[active] - 1],
            los[active],
            his[active],
        )
        grew = new_lo < new_hi
        moved = active[grew]
        los[moved] = new_lo[grew]
        his[moved] = new_hi[grew]
        starts[moved] -= 1
        active = moved[starts[moved] > 0]
    return starts, los, his, steps


def _anchors(n: int, min_seed_length: int, anchor_stride: int) -> list[int]:
    """Anchor ends, read end first, every ``anchor_stride`` down to
    ``min_seed_length``."""
    anchors = list(range(n, min_seed_length - 1, -anchor_stride))
    if anchors and anchors[-1] != min_seed_length:
        anchors.append(min_seed_length)
    return anchors


def _kept_seeds(
    index: FMIndex,
    extensions: list[Extension],
    min_seed_length: int,
    max_hits_per_seed: int,
) -> list[Seed]:
    """Containment filter over one read's extensions, in anchor order, and
    up to ``max_hits_per_seed`` located hits for each kept match."""
    kept_intervals: list[tuple[int, int]] = []
    seeds: list[Seed] = []
    for start, end, lo, hi in extensions:
        length = end - start
        if length < min_seed_length:
            continue
        if any(ks <= start and end <= ke for ks, ke in kept_intervals):
            continue  # contained in an existing SMEM
        kept_intervals.append((start, end))
        # For reverse hits the query interval refers to the reverse-
        # complemented read; callers align the RC read, so store as-is.
        seeds.extend(
            Seed(start, end, *hit)
            for hit in index.locate(lo, hi, length, limit=max_hits_per_seed)
        )
    return seeds


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
