"""Diploid genotyping over assembled haplotypes.

Given the read-by-haplotype log-likelihood matrix, the diploid model
scores every unordered haplotype pair (h1, h2)::

    log P(reads | h1, h2) = sum_r log( (P(r|h1) + P(r|h2)) / 2 )

The best pair determines the genotype; variants are extracted by globally
aligning each called non-reference haplotype against the reference window
and walking the alignment for SNVs/indels.  A haplotype of the window's
length within one mismatch of it (most SNV haplotypes) needs no table.
The edit table is one prefix-minimum row scan per reference base, and the
traceback walks it as Python lists.  QUAL is the Phred-scaled ratio
between the best variant-bearing pair and the homozygous-reference pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.caller.debruijn import Haplotype
from repro.formats.vcf import VcfRecord


@dataclass(frozen=True, slots=True)
class GenotypeCall:
    haplotype1: int
    haplotype2: int
    log_likelihood: float
    qual: float  # Phred-scaled confidence that the call is non-reference
    depth: int


class Genotyper:
    def __init__(self, min_qual: float = 20.0, ploidy: int = 2):
        if ploidy != 2:
            raise NotImplementedError("only diploid genotyping is implemented")
        self.min_qual = min_qual

    def call(
        self,
        likelihoods: np.ndarray,
        haplotypes: list[Haplotype],
    ) -> GenotypeCall:
        """Best diploid genotype from the (reads x haplotypes) matrix."""
        num_reads, num_haps = likelihoods.shape
        if num_haps == 0:
            raise ValueError("no haplotypes to genotype")
        ref_index = next(
            (i for i, h in enumerate(haplotypes) if h.is_reference), 0
        )
        best: tuple[float, int, int] | None = None
        log_half = np.log(0.5)
        pair_scores: dict[tuple[int, int], float] = {}
        for a in range(num_haps):
            for b in range(a, num_haps):
                # log((La + Lb)/2) per read, summed.
                per_read = np.logaddexp(likelihoods[:, a], likelihoods[:, b]) + log_half
                score = float(per_read.sum()) if num_reads else 0.0
                pair_scores[(a, b)] = score
                if best is None or score > best[0]:
                    best = (score, a, b)
        assert best is not None
        score, h1, h2 = best
        hom_ref = pair_scores[(ref_index, ref_index)]
        if (h1, h2) == (ref_index, ref_index):
            qual = 0.0
        else:
            qual = max(0.0, 10.0 / np.log(10.0) * (score - hom_ref))
        return GenotypeCall(
            haplotype1=h1,
            haplotype2=h2,
            log_likelihood=score,
            qual=float(qual),
            depth=num_reads,
        )


def haplotype_variants(
    haplotype: str, ref_window: str, contig: str, window_start: int
) -> list[tuple[str, int, str, str]]:
    """(contig, pos, ref, alt) differences between haplotype and reference.

    Global alignment with unit costs (scipy-free Needleman-Wunsch over
    small windows) followed by a difference walk.  Adjacent substitutions
    are emitted per base; indels get the VCF anchor-base convention.  A
    haplotype of the window's length at Hamming distance <= 1 skips the
    table: its traceback is the main diagonal, so it is that one SNV.
    """
    a, b = ref_window, haplotype
    m, n = len(a), len(b)
    if m == n:
        differ = np.flatnonzero(
            np.frombuffer(a.encode("ascii"), dtype=np.uint8)
            != np.frombuffer(b.encode("ascii"), dtype=np.uint8)
        ).tolist()
        if len(differ) <= 1:
            return [(contig, window_start + i, a[i], b[i]) for i in differ]
    dp = _edit_table(a, b).tolist()
    # Traceback.
    i, j = m, n
    diffs: list[tuple[str, int, str, str]] = []
    pending_ins: list[tuple[int, str]] = []
    pending_del: list[tuple[int, str]] = []
    while i > 0 or j > 0:
        row = dp[i]
        if i > 0 and j > 0 and row[j] == dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]):
            if a[i - 1] != b[j - 1]:
                diffs.append((contig, window_start + i - 1, a[i - 1], b[j - 1]))
            i -= 1
            j -= 1
        elif j > 0 and row[j] == row[j - 1] + 1:
            pending_ins.append((i, b[j - 1]))
            j -= 1
        else:
            pending_del.append((i - 1, a[i - 1]))
            i -= 1
    # Collapse runs of insertions/deletions into anchored indel records.
    diffs.extend(_collapse_insertions(pending_ins, a, contig, window_start))
    diffs.extend(_collapse_deletions(pending_del, a, contig, window_start))
    diffs.sort(key=lambda d: d[1])
    return diffs


def _edit_table(a: str, b: str) -> np.ndarray:
    """Unit-cost edit-distance table of ``a`` (rows) against ``b`` (columns).

    Each row is ``min(diagonal, up)`` followed by the left-to-right scan
    ``row[j] = min(best[j], row[j-1] + 1)``, ``best[0] = i``, which unrolls
    to ``row[j] = j + min_{k<=j}(best[k] - k)``: one exact integer prefix
    minimum instead of a per-column loop.
    """
    m, n = len(a), len(b)
    dp = np.zeros((m + 1, n + 1), dtype=np.int64)
    dp[:, 0] = np.arange(m + 1)
    dp[0, :] = np.arange(n + 1)
    a_arr = np.frombuffer(a.encode("ascii"), dtype=np.uint8)
    b_arr = np.frombuffer(b.encode("ascii"), dtype=np.uint8)
    sub_cost = (a_arr[:, None] != b_arr[None, :]).astype(np.int64)
    cols = np.arange(n + 1)
    best = np.empty(n + 1, dtype=np.int64)
    for i in range(1, m + 1):
        prev = dp[i - 1]
        best[0] = i
        np.minimum(prev[:-1] + sub_cost[i - 1], prev[1:] + 1, out=best[1:])
        dp[i] = cols + np.minimum.accumulate(best - cols)
    return dp


def _collapse_insertions(
    pending: list[tuple[int, str]], ref_window: str, contig: str, window_start: int
) -> list[tuple[str, int, str, str]]:
    """Group inserted bases by their reference gap position."""
    if not pending:
        return []
    by_pos: dict[int, list[str]] = {}
    for ref_i, base in reversed(pending):  # reversed: traceback ran backwards
        by_pos.setdefault(ref_i, []).append(base)
    out = []
    for ref_i, bases in by_pos.items():
        if ref_i == 0:
            continue  # cannot anchor before the window
        anchor = ref_window[ref_i - 1]
        out.append(
            (contig, window_start + ref_i - 1, anchor, anchor + "".join(bases))
        )
    return out


def _collapse_deletions(
    pending: list[tuple[int, str]], ref_window: str, contig: str, window_start: int
) -> list[tuple[str, int, str, str]]:
    """Group deleted reference runs into anchored deletion records."""
    if not pending:
        return []
    positions = sorted(set(p for p, _ in pending))
    out = []
    run_start = positions[0]
    prev = run_start
    for pos in positions[1:] + [None]:  # type: ignore[list-item]
        if pos is not None and pos == prev + 1:
            prev = pos
            continue
        if run_start > 0:
            anchor = ref_window[run_start - 1]
            deleted = ref_window[run_start : prev + 1]
            out.append(
                (
                    contig,
                    window_start + run_start - 1,
                    anchor + deleted,
                    anchor,
                )
            )
        if pos is not None:
            run_start = pos
            prev = pos
    return out


def genotype_to_vcf(
    call: GenotypeCall,
    haplotypes: list[Haplotype],
    ref_window: str,
    contig: str,
    window_start: int,
    min_qual: float = 20.0,
) -> list[VcfRecord]:
    """VCF records for the variants carried by the called genotype."""
    ref_index = next((i for i, h in enumerate(haplotypes) if h.is_reference), 0)
    called = {call.haplotype1, call.haplotype2}
    if called == {ref_index} or call.qual < min_qual:
        return []
    variant_sets: list[set[tuple[str, int, str, str]]] = []
    for hap_index in (call.haplotype1, call.haplotype2):
        if hap_index == ref_index:
            variant_sets.append(set())
            continue
        variant_sets.append(
            set(
                haplotype_variants(
                    haplotypes[hap_index].sequence, ref_window, contig, window_start
                )
            )
        )
    all_variants = variant_sets[0] | variant_sets[1]
    records = []
    for variant in sorted(all_variants, key=lambda v: v[1]):
        on_both = variant in variant_sets[0] and variant in variant_sets[1]
        genotype = "1/1" if on_both else "0/1"
        records.append(
            VcfRecord(
                contig=variant[0],
                pos=variant[1],
                ref=variant[2],
                alt=variant[3],
                qual=call.qual,
                genotype=genotype,
                depth=call.depth,
                info={"DP": call.depth},
            )
        )
    return records
