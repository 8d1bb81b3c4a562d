"""Local de Bruijn assembly of candidate haplotypes.

For one active region: build a k-mer graph from the reference window plus
all spanning read sequences (k-mers below a support threshold are pruned
as sequencing errors), then enumerate paths from the reference window's
first k-mer to its last.  Each path is a candidate haplotype.  Following
GATK, the reference path is always included, cycles abort assembly for
that k and retry with a larger k, and the path count is capped.

The graph is built on arrays: the (k-1)-mers of the joined read and
reference bytes get integer node ids from one ``np.unique`` over their
windows (packed 2 bits a base, or a ``void`` view of the bytes when a
window needs more than 64 bits or holds another letter), a k-mer is the
pair of node ids at t and t+1, and its support is a ``np.bincount`` over
one more ``np.unique``.  The path walk runs over integer node ids and edge arrays, taking each
node's edges in order of their k-mer's first occurrence (reads first,
then the reference), so haplotypes come out in the order a dict graph
built in that order gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.formats.sam import SamRecord

#: A, C, G, T as 0-3, N as 4, any other byte as 5.
_TWO_BIT = np.full(256, 5, dtype=np.uint8)
_TWO_BIT[np.frombuffer(b"ACGTN", dtype=np.uint8)] = np.arange(5, dtype=np.uint8)


@dataclass(frozen=True, slots=True)
class Haplotype:
    sequence: str
    is_reference: bool = False
    kmer_support: float = 0.0


class DeBruijnAssembler:
    def __init__(
        self,
        kmer_sizes: tuple[int, ...] = (15, 25, 35),
        min_kmer_support: int = 2,
        max_haplotypes: int = 16,
        max_paths_explored: int = 512,
    ):
        self.kmer_sizes = kmer_sizes
        self.min_kmer_support = min_kmer_support
        self.max_haplotypes = max_haplotypes
        self.max_paths_explored = max_paths_explored

    def assemble(self, ref_window: str, reads: Sequence[SamRecord]) -> list[Haplotype]:
        """Candidate haplotypes for the window (reference always first)."""
        seqs = [rec.seq for rec in reads]
        text = np.frombuffer(("".join(seqs) + ref_window).encode("ascii"), dtype=np.uint8)
        # Each position's segment (a read, or the window) ends at seg_end.
        ends = np.cumsum([len(s) for s in seqs] + [len(ref_window)])
        seg_end = np.repeat(ends, np.diff(ends, prepend=0))
        for k in self.kmer_sizes:
            haplotypes = self._assemble_k(ref_window, text, seg_end, k)
            if haplotypes is not None:
                return haplotypes
        # All k produced cycles: fall back to the reference haplotype only.
        return [Haplotype(ref_window, is_reference=True)]

    # -- internals ------------------------------------------------------------
    def _kmer_graph(
        self, text: np.ndarray, seg_end: np.ndarray, ref_start: int, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Node ids of the (k-1)-mer at every position, and the supported
        edges (source, target, support, first occurrence) sorted by source,
        then first occurrence."""
        positions = np.arange(len(text))
        node = np.zeros(len(text), dtype=np.int64)
        fits = positions + k - 1 <= seg_end
        width = len(text) - k + 2
        code = _TWO_BIT[text]
        if k <= 33 and code.max() <= 4 and code[ref_start:].max() < 4:
            # 2 bits a base; an N only sits in read windows no k-mer uses.
            weights = np.uint64(4) ** np.arange(k - 2, -1, -1, dtype=np.uint64)
            packed = sliding_window_view((code & 3).astype(np.uint64), k - 1) @ weights
            windows = packed[fits[:width]]
        else:
            windows = np.ascontiguousarray(sliding_window_view(text, k - 1)[fits[:width]])
            windows = windows.view(f"V{k - 1}").ravel()
        nodes, node[fits] = np.unique(windows, return_inverse=True)
        # Read k-mers with an N are dropped; the reference's all count.
        has_n = np.concatenate(([0], np.cumsum(text == ord("N"))))
        starts = positions[: len(text) - k + 1]
        valid = (starts + k <= seg_end[: len(starts)]) & (
            (starts >= ref_start) | (has_n[starts + k] == has_n[starts])
        )
        starts = starts[valid]
        keys = node[starts] * len(nodes) + node[starts + 1]
        edges, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        weight = np.where(starts >= ref_start, self.min_kmer_support, 1)
        support = np.bincount(inverse, weights=weight).astype(np.int64)
        keep = np.flatnonzero(support >= self.min_kmer_support)
        src = edges[keep] // len(nodes)
        order = np.lexsort((first[keep], src))
        keep = keep[order]
        return node, src[order], edges[keep] % len(nodes), support[keep], starts[first[keep]]

    def _assemble_k(
        self, ref_window: str, text: np.ndarray, seg_end: np.ndarray, k: int
    ) -> list[Haplotype] | None:
        if len(ref_window) <= k:
            return [Haplotype(ref_window, is_reference=True)]
        ref_start = len(text) - len(ref_window)
        node, src, dst, support, first = self._kmer_graph(text, seg_end, ref_start, k)
        source = int(node[ref_start])
        sink = int(node[len(text) - (k - 1)])
        offsets = np.searchsorted(src, np.arange(int(node.max()) + 2)).tolist()
        targets = dst.tolist()
        counts = support.tolist()
        last_base = text[first + k - 1].tobytes().decode("ascii")
        source_seq = ref_window[: k - 1]

        haplotypes: list[Haplotype] = []
        explored = 0
        on_path = {source}
        path: list[int] = []  # edges taken

        def dfs(at: int, support_acc: int) -> bool:
            """False when a cycle was found (abort this k)."""
            nonlocal explored
            explored += 1
            if explored > self.max_paths_explored:
                return True  # give up quietly; keep what we found
            if at == sink:
                seq = source_seq + "".join(last_base[e] for e in path)
                haplotypes.append(
                    Haplotype(
                        seq,
                        is_reference=(seq == ref_window),
                        kmer_support=support_acc / (len(path) + 1),
                    )
                )
                return True
            if len(haplotypes) >= self.max_haplotypes:
                return True
            for edge in range(offsets[at], offsets[at + 1]):
                to = targets[edge]
                if to in on_path:
                    if to == sink:
                        continue
                    return False  # cycle
                on_path.add(to)
                path.append(edge)
                ok = dfs(to, support_acc + counts[edge])
                path.pop()
                on_path.discard(to)
                if not ok:
                    return False
            return True

        if not dfs(source, 0):
            return None

        # Guarantee the reference haplotype is present and first.
        result = [h for h in haplotypes if h.is_reference] or [
            Haplotype(ref_window, is_reference=True)
        ]
        others = [h for h in haplotypes if not h.is_reference]
        others.sort(key=lambda h: -h.kmer_support)
        return result + others[: self.max_haplotypes - 1]
