"""Suffix array construction: one 8-byte-key sort, then doubling on ties.

Every suffix is ranked once by its first eight bytes, read as one
big-endian ``uint64`` through a byte-strided view of the text; only the
suffixes that still tie are re-sorted, by ``(rank[i], rank[i + h])`` with
``h`` doubling from 8.  Ranks are int32 sorted positions.  The text must
end with a unique sentinel byte 0, so a key that reaches it never ties
and a tied suffix ``i`` always has ``i + h`` inside the text.
"""

from __future__ import annotations

import numpy as np


def build_suffix_array(text: bytes) -> np.ndarray:
    """Suffix array of ``text`` as an int32 index array.

    ``text`` must contain a terminating sentinel byte 0 that appears
    exactly once, at the end — the convention the BWT construction relies
    on.
    """
    if not text:
        return np.empty(0, dtype=np.int32)
    if text[-1] != 0:
        raise ValueError("text must end with the 0 sentinel byte")
    if text.count(b"\x00") != 1:
        raise ValueError("sentinel byte 0 must be unique")
    n = len(text)
    padded = np.zeros(n + 7, dtype=np.uint8)
    padded[:n] = np.frombuffer(text, dtype=np.uint8)
    key = np.ndarray((n,), dtype=">u8", buffer=padded, strides=(1,)).astype(np.uint64)
    sa = np.argsort(key).astype(np.int32)
    key = key[sa]
    # head[p]: sorted position p starts a tie group.
    head = np.ones(n + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:n])
    del key
    rank = np.empty(n, dtype=np.int32)
    rank[sa] = np.maximum.accumulate(np.where(head[:n], np.arange(n, dtype=np.int32), 0))
    h = 8
    while True:
        tied = np.flatnonzero(~(head[:-1] & head[1:]))
        if not tied.size:
            return sa
        suffixes = sa[tied]
        pair = rank[suffixes].astype(np.int64) * n + rank[suffixes + h]
        order = np.argsort(pair)
        pair = pair[order]
        sa[tied] = suffixes = suffixes[order]
        # Group starts inside the tied runs; each run's first row already is one.
        starts = np.ones(len(tied), dtype=bool)
        np.not_equal(pair[1:], pair[:-1], out=starts[1:])
        head[tied] = starts
        rank[suffixes] = np.maximum.accumulate(np.where(starts, tied, 0))
        h *= 2
