"""Scalar FM-index search and seeding for the differential tests.

The one-character backward-search step, the one-read seed extraction with
its scalar containment filter, and the quadratic suffix sort that
``repro.align`` ran before its batched paths replaced them, kept here
(test side only) as oracles: ``FMIndex.extend_lanes`` must extend every
lane as :func:`extend_lane` does, ``find_seeds_batch`` must return
:func:`find_seeds`'s seeds read by read, and ``build_suffix_array`` must
equal :func:`naive_suffix_array`.  They count ranks by brute force over
the index's BWT codes (``_bwt_codes``) and read its ``_code_of`` map,
never its LF table or search code.  :func:`bwt` and its LF-mapping
inverse :func:`inverse_bwt` check the transform the index is built on.
"""

from __future__ import annotations

import numpy as np

from repro.align.fmindex import FMIndex, bwt_from_suffix_array
from repro.align.seeds import Seed
from repro.align.suffix_array import build_suffix_array

#: One anchor's extension: ``(start, end, lo, hi)`` — the match
#: read[start:end] and its suffix-array interval.
Extension = tuple[int, int, int, int]


def rank(index: FMIndex, code: int, row: int) -> int:
    """Occurrences of character ``code`` in bwt[:row]."""
    return int(np.count_nonzero(index._bwt_codes[:row] == code))


def smaller(index: FMIndex, code: int) -> int:
    """``C[code]``: text characters whose code is below ``code``."""
    return int(np.count_nonzero(index._bwt_codes < code))


def backward_search(index: FMIndex, pattern: str) -> tuple[int, int]:
    """(lo, hi) interval of rows whose suffixes start with ``pattern``.

    Empty interval (lo >= hi) means no exact occurrence.  ``N`` in the
    pattern never matches (as in BWA's exact-seed phase).
    """
    lo, hi = 0, index.text_length
    for char in reversed(pattern):
        code = index._code_of[ord(char)]
        if code < 0 or char == "N":
            return (0, 0)
        lo = smaller(index, int(code)) + rank(index, int(code), lo)
        hi = smaller(index, int(code)) + rank(index, int(code), hi)
        if lo >= hi:
            return (0, 0)
    return lo, hi


def count(index: FMIndex, pattern: str) -> int:
    lo, hi = backward_search(index, pattern)
    return hi - lo


def extend_left(index: FMIndex, char: str, lo: int, hi: int) -> tuple[int, int]:
    """One backward-search step; the primitive SMEM extraction uses."""
    code = index._code_of[ord(char)]
    if code < 0 or char == "N":
        return (0, 0)
    new_lo = smaller(index, int(code)) + rank(index, int(code), lo)
    new_hi = smaller(index, int(code)) + rank(index, int(code), hi)
    return (new_lo, new_hi) if new_lo < new_hi else (0, 0)


def extend_lane(index: FMIndex, text: str, end: int, floor: int) -> Extension:
    """One lane's backward search: the whole interval narrowed by
    ``text[end - 1]``, ``text[end - 2]``, ... down to ``text[floor]``
    while it stays non-empty, one :func:`extend_left` call per step."""
    lo, hi = 0, index.text_length
    start = end
    while start > floor:
        new_lo, new_hi = extend_left(index, text[start - 1], lo, hi)
        if new_lo >= new_hi:
            break
        lo, hi = new_lo, new_hi
        start -= 1
    return start, end, lo, hi


def find_seeds(
    index: FMIndex,
    read: str,
    min_seed_length: int = 19,
    max_hits_per_seed: int = 16,
    anchor_stride: int = 8,
) -> list[Seed]:
    """Extract seeds for one read.

    For anchors spaced ``anchor_stride`` apart (always including the read
    end), extend leftwards from the anchor as far as the index allows,
    keep matches of at least ``min_seed_length``, drop matches contained
    in an already-kept one, and locate up to ``max_hits_per_seed``
    occurrences of each.  Each step is one :func:`extend_left` call.
    """
    n = len(read)
    if n < min_seed_length:
        return []
    extensions = [
        extend_lane(index, read, end, 0)
        for end in _anchors(n, min_seed_length, anchor_stride)
    ]
    return _kept_seeds(index, extensions, min_seed_length, max_hits_per_seed)


def locate(
    index: FMIndex, lo: int, hi: int, length: int, limit: int = 64
) -> list[tuple[str, int, bool]]:
    """``(contig, start, is_reverse)`` of the first ``limit`` rows of one
    interval, in row order: :meth:`FMIndex.locate_batch` of one interval."""
    _, contig, start, is_reverse = index.locate_batch([lo], [hi], [length], limit)
    names = index.contig_names
    return [
        (names[c], s, r)
        for c, s, r in zip(contig.tolist(), start.tolist(), is_reverse.tolist())
    ]


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
        seeds.extend(
            Seed(start, end, *hit)
            for hit in locate(index, lo, hi, length, limit=max_hits_per_seed)
        )
    return seeds


def naive_suffix_array(text: bytes) -> np.ndarray:
    """O(n^2 log n) reference implementation for cross-checking in tests."""
    suffixes = sorted(range(len(text)), key=lambda i: text[i:])
    return np.asarray(suffixes, dtype=np.int64)


def bwt(text: bytes) -> np.ndarray:
    """Convenience: BWT of a sentinel-terminated text."""
    return bwt_from_suffix_array(text, build_suffix_array(text))


def inverse_bwt(transformed: np.ndarray) -> bytes:
    """Invert the BWT via LF-mapping (used in tests to validate the index)."""
    transformed = np.asarray(transformed, dtype=np.uint8)
    n = len(transformed)
    if n == 0:
        return b""
    # order maps F-rank -> BWT row; LF is its inverse permutation.
    order = np.argsort(transformed, kind="stable")
    lf = np.empty(n, dtype=np.int64)
    lf[order] = np.arange(n)
    out = bytearray(n)
    out[n - 1] = 0  # the sentinel ends the text
    # Row 0 of the sorted rotation matrix starts with the sentinel, so its
    # BWT character is the text's last real symbol; walk LF backwards.
    row = 0
    for i in range(n - 2, -1, -1):
        out[i] = transformed[row]
        row = lf[row]
    return bytes(out)
