"""Suffix array construction (prefix-doubling, O(n log^2 n), vectorized).

The reference genomes in this reproduction are megabase-scale, where the
NumPy prefix-doubling construction is fast enough and has no recursion
depth or alphabet-size constraints.  The text is expected to end with a
unique sentinel smaller than every other symbol (we use byte 0).
"""

from __future__ import annotations

import numpy as np


def build_suffix_array(text: bytes) -> np.ndarray:
    """Suffix array of ``text`` as an int64 index array.

    ``text`` must contain a terminating sentinel byte 0 that appears
    exactly once, at the end — the convention the BWT construction relies
    on.
    """
    if not text:
        return np.empty(0, dtype=np.int64)
    if text[-1] != 0:
        raise ValueError("text must end with the 0 sentinel byte")
    if text.count(b"\x00") != 1:
        raise ValueError("sentinel byte 0 must be unique")
    data = np.frombuffer(text, dtype=np.uint8).astype(np.int64)
    n = len(data)
    rank = data.copy()
    order = np.argsort(rank, kind="stable")
    k = 1
    tmp = np.empty(n, dtype=np.int64)
    while True:
        # Composite key: (rank[i], rank[i+k]) with -1 past the end.
        second = np.full(n, -1, dtype=np.int64)
        second[: n - k] = rank[k:]
        order = np.lexsort((second, rank))
        # Re-rank: increment where the composite key changes.
        tmp[order[0]] = 0
        prev = order[:-1]
        cur = order[1:]
        changed = (rank[cur] != rank[prev]) | (second[cur] != second[prev])
        tmp[cur] = np.cumsum(changed)
        rank, tmp = tmp, rank
        if rank[order[-1]] == n - 1:
            return order
        k *= 2

