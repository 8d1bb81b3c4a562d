"""Scalar and loop forms of the caller's kernels, for the differential tests.

The kernels ``repro.caller`` ran before its array paths replaced them,
kept here (test side only) as oracles:

- :func:`log_likelihood` — the log-space pair-HMM forward for one pair,
  and :func:`likelihood_matrix_scalar` over a (reads x haplotypes) grid;
  the batched kernel must match it to 1e-12 relative.
- :func:`row_major_log_likelihoods` — the linear-space batched forward
  that iterated over read rows, with its per-row rescale and its
  ``D_BLOCK`` column blocks.  The column-major kernel must agree with it
  to 1e-12 relative.
- :func:`assemble` / :func:`assemble_k` — the dict-graph de Bruijn
  assembly with its recursive path walk; the array assembly must emit
  the same haplotypes in the same order.
- :func:`build_activity_profiles` — the per-read, per-CIGAR-operation
  pile-up; the bincount profile must be equal.
- :func:`haplotype_variants` — the difference walk over the row-scan edit
  table; the genotyper must return the same variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.caller.debruijn import DeBruijnAssembler, Haplotype
from repro.caller.genotyper import _collapse_deletions, _collapse_insertions
from repro.caller.pairhmm import LOG_ZERO, PairHMM
from repro.formats.fasta import Reference
from repro.formats.sam import SamRecord

# -- pair-HMM -----------------------------------------------------------------


def _log(x):
    return np.log(np.maximum(x, 1e-300))


def log_likelihood(
    hmm: PairHMM, read: str, quals: Sequence[int] | np.ndarray, haplotype: str
) -> float:
    """log P(read | haplotype) by the log-space forward algorithm, with a
    per-column Python scan for D's same-row dependency."""
    m, n = len(read), len(haplotype)
    if m == 0 or n == 0:
        return LOG_ZERO

    read_arr = np.frombuffer(read.encode("ascii"), dtype=np.uint8)
    hap_arr = np.frombuffer(haplotype.encode("ascii"), dtype=np.uint8)
    base_error = 10.0 ** (-np.asarray(quals, dtype=np.float64) / 10.0)

    log_go = float(_log(hmm.gap_open))
    log_ge = float(_log(hmm.gap_extend))
    log_no_gap = float(_log(1.0 - 2.0 * hmm.gap_open))
    log_gap_to_match = float(_log(1.0 - hmm.gap_extend))

    neg = np.full(n + 1, LOG_ZERO)
    m_prev = neg.copy()
    i_prev = neg.copy()
    # Free left flank: D row 0 uniform over start positions.
    d_prev = neg.copy()
    d_prev[:] = float(-np.log(n))
    d_prev[0] = LOG_ZERO

    for i in range(1, m + 1):
        base = read_arr[i - 1]
        err = base_error[i - 1]
        match_p = np.where(
            (hap_arr == base) & (base != ord("N")) & (hap_arr != ord("N")),
            1.0 - err,
            err / 3.0,
        )
        m_cur = neg.copy()
        i_cur = neg.copy()
        stay = np.logaddexp(
            m_prev[:-1] + log_no_gap,
            np.logaddexp(i_prev[:-1], d_prev[:-1]) + log_gap_to_match,
        )
        m_cur[1:] = np.log(match_p) + stay
        i_cur[1:] = np.logaddexp(m_prev[1:] + log_go, i_prev[1:] + log_ge)
        i_cur[0] = np.logaddexp(m_prev[0] + log_go, i_prev[0] + log_ge)

        mc = m_cur.tolist()
        dc = neg.tolist()
        prev_d = LOG_ZERO
        for j in range(1, n + 1):
            from_m = mc[j - 1] + log_go
            from_d = prev_d + log_ge
            lo, hi = (from_m, from_d) if from_m < from_d else (from_d, from_m)
            if hi - lo > 50 or lo <= LOG_ZERO / 2:
                dc[j] = hi
            else:
                dc[j] = hi + np.log1p(np.exp(lo - hi))
            prev_d = dc[j]
        m_prev, i_prev, d_prev = m_cur, i_cur, np.asarray(dc)

    # Free right flank: sum over all end columns of M and I.
    return float(np.logaddexp.reduce(np.logaddexp(m_prev[1:], i_prev[1:])))


def likelihood_matrix_scalar(
    hmm: PairHMM, reads: list[tuple[str, Sequence[int]]], haplotypes: list[str]
) -> np.ndarray:
    """One scalar forward per (read, haplotype) cell."""
    out = np.empty((len(reads), len(haplotypes)), dtype=np.float64)
    for i, (seq, quals) in enumerate(reads):
        for j, hap in enumerate(haplotypes):
            out[i, j] = log_likelihood(hmm, seq, quals, hap)
    return out


#: The row-major kernel's rescale period (read rows) and D column block.
RESCALE_ROWS = 8
D_BLOCK = 32
_READ_NOMATCH, _HAP_NOMATCH, _PAD_ERROR = 0xFE, 0xFF, 0.75


def _pack(texts: list[str], lengths: np.ndarray, width: int, nomatch: int) -> np.ndarray:
    out = np.full((len(texts), width), nomatch, dtype=np.uint8)
    out[np.arange(width) < lengths[:, None]] = np.frombuffer(
        "".join(texts).encode("ascii"), dtype=np.uint8
    )
    out[out == ord("N")] = nomatch
    return out


def row_major_log_likelihoods(
    hmm: PairHMM, items: Sequence[tuple[str, Sequence[int], str]]
) -> np.ndarray:
    """The linear-space forward over read rows, all pairs in one batch:
    column-major arrays in the pair, a power-of-two rescale per pair every
    :data:`RESCALE_ROWS` rows, and D's same-row recurrence as a geometric
    prefix sum over :data:`D_BLOCK`-column blocks."""
    out = np.full(len(items), LOG_ZERO, dtype=np.float64)
    live = [p for p, (seq, _, hap) in enumerate(items) if seq and hap]
    if not live:
        return out
    seqs = [items[p][0] for p in live]
    haps = [items[p][2] for p in live]
    pairs = len(live)
    m_len = np.fromiter(map(len, seqs), dtype=np.int64, count=pairs)
    n_len = np.fromiter(map(len, haps), dtype=np.int64, count=pairs)
    m_max = int(m_len.max())
    width = int(n_len.max())

    read = _pack(seqs, m_len, m_max, _READ_NOMATCH).T.copy()
    hap = _pack(haps, n_len, width, _HAP_NOMATCH).T.copy()
    error = np.full((pairs, m_max), _PAD_ERROR)
    error[np.arange(m_max) < m_len[:, None]] = np.concatenate(
        [10.0 ** (-np.asarray(items[p][1], dtype=np.float64) / 10.0) for p in live]
    )
    error = error.T.copy()
    go, ge = hmm.gap_open, hmm.gap_extend
    no_gap = 1.0 - 2.0 * go
    r = (1.0 - ge) / no_gap
    match_p = (1.0 - error) * no_gap
    miss_p = error / 3.0 * no_gap
    u = (np.arange(width) % D_BLOCK).astype(np.float64)[:, None]
    d_weight = r * go * ge**-u
    ge_u = ge**u

    m_state = np.zeros((width + 1, pairs))
    i_state = np.zeros((width + 1, pairs))
    d_state = np.zeros((width + 1, pairs))
    d_state[1:] = r / n_len
    stay = np.empty((width, pairs))
    opened = np.empty((width + 1, pairs))
    real = np.arange(1, width + 1)[:, None] <= n_len
    scale_exp = np.zeros(pairs, dtype=np.int64)
    ends = {int(m): np.flatnonzero(m_len == m) for m in np.unique(m_len)}
    result = np.empty(pairs)

    for i in range(m_max):
        emit = np.where(hap == read[i], match_p[i], miss_p[i])
        np.add(i_state[:-1], d_state[:-1], out=stay)
        stay += m_state[:-1]
        i_state *= ge
        np.multiply(m_state, r * go, out=opened)
        i_state += opened
        np.multiply(stay, emit, out=m_state[1:])
        np.multiply(m_state[:-1], d_weight, out=d_state[1:])
        for s in range(0, width, D_BLOCK):
            block = d_state[s + 1 : s + 1 + D_BLOCK]
            if s:
                block[0] += ge * d_state[s]
            np.cumsum(block, axis=0, out=block)
            block *= ge_u[: len(block)]
        row = i + 1
        if row % RESCALE_ROWS == 0:
            peak = np.where(real, m_state[1:] + i_state[1:], 0.0).max(axis=0)
            _, exp = np.frexp(peak)
            factor = np.ldexp(1.0, -exp)
            m_state *= factor
            i_state *= factor
            d_state *= factor
            scale_exp += exp
        done = ends.get(row)
        if done is not None:
            total = np.cumsum(m_state[1:, done] + i_state[1:, done] / r, axis=0)[
                n_len[done] - 1, np.arange(len(done))
            ]
            mantissa, exp = np.frexp(total)
            exp = exp + scale_exp[done]
            result[done] = [
                math.log(f) + e * math.log(2.0) if f else LOG_ZERO
                for f, e in zip(mantissa.tolist(), exp.tolist())
            ]
    out[live] = result
    return out


# -- assembly -----------------------------------------------------------------


def assemble(
    assembler: DeBruijnAssembler, ref_window: str, reads: Sequence[SamRecord]
) -> list[Haplotype]:
    """:meth:`DeBruijnAssembler.assemble` over :func:`assemble_k`."""
    for k in assembler.kmer_sizes:
        haplotypes = assemble_k(assembler, ref_window, reads, k)
        if haplotypes is not None:
            return haplotypes
    return [Haplotype(ref_window, is_reference=True)]


def assemble_k(
    assembler: DeBruijnAssembler, ref_window: str, reads: Sequence[SamRecord], k: int
) -> list[Haplotype] | None:
    """One k: a dict k-mer graph walked by a recursive DFS over strings."""
    if len(ref_window) <= k:
        return [Haplotype(ref_window, is_reference=True)]
    min_support = assembler.min_kmer_support

    support: dict[str, int] = {}
    for rec in reads:
        seq = rec.seq
        for i in range(len(seq) - k + 1):
            kmer = seq[i : i + k]
            if "N" not in kmer:
                support[kmer] = support.get(kmer, 0) + 1
    for i in range(len(ref_window) - k + 1):
        kmer = ref_window[i : i + k]
        support[kmer] = support.get(kmer, 0) + min_support

    edges: dict[str, list[tuple[str, str, int]]] = {}
    for kmer, count in support.items():
        if count >= min_support:
            edges.setdefault(kmer[:-1], []).append((kmer[1:], kmer, count))

    source = ref_window[: k - 1]
    sink = ref_window[len(ref_window) - (k - 1) :]
    haplotypes: list[Haplotype] = []
    explored = 0

    def dfs(node: str, path: list[str], on_path: set[str], support_acc: int) -> bool:
        """False when a cycle was found (abort this k)."""
        nonlocal explored
        explored += 1
        if explored > assembler.max_paths_explored:
            return True
        if node == sink and len(path) >= 1:
            seq = path[0] + "".join(p[-1] for p in path[1:])
            haplotypes.append(
                Haplotype(
                    seq,
                    is_reference=(seq == ref_window),
                    kmer_support=support_acc / max(1, len(path)),
                )
            )
            return True
        if len(haplotypes) >= assembler.max_haplotypes:
            return True
        for dst, _, count in edges.get(node, ()):
            if dst in on_path:
                if dst == sink:
                    continue
                return False
            on_path.add(dst)
            path.append(dst)
            ok = dfs(dst, path, on_path, support_acc + count)
            path.pop()
            on_path.discard(dst)
            if not ok:
                return False
        return True

    if not dfs(source, [source], {source}, 0):
        return None
    result = [h for h in haplotypes if h.is_reference] or [Haplotype(ref_window, is_reference=True)]
    others = [h for h in haplotypes if not h.is_reference]
    others.sort(key=lambda h: -h.kmer_support)
    return result + others[: assembler.max_haplotypes - 1]


# -- activity profile ---------------------------------------------------------


@dataclass
class ActivityProfile:
    """Per-position activity evidence over one contig."""

    contig: str
    length: int
    mismatch_quality: np.ndarray = field(init=False)
    indel_events: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.mismatch_quality = np.zeros(self.length, dtype=np.float64)
        self.indel_events = np.zeros(self.length, dtype=np.float64)


def build_activity_profiles(
    records: Sequence[SamRecord], reference: Reference
) -> dict[str, ActivityProfile]:
    """One pass over the records, one CIGAR operation at a time."""
    profiles: dict[str, ActivityProfile] = {}
    for rec in records:
        if rec.is_unmapped or rec.is_duplicate or not rec.seq:
            continue
        contig = reference[rec.rname]
        profile = profiles.get(rec.rname)
        if profile is None:
            profile = profiles[rec.rname] = ActivityProfile(rec.rname, len(contig))
        quals = rec.phred_scores
        seq = rec.seq
        ref_cursor = rec.pos
        query_cursor = 0
        for op in rec.cigar:
            if op.op in ("M", "=", "X"):
                end = min(ref_cursor + op.length, len(contig))
                span = end - ref_cursor
                if span > 0:
                    ref_slice = np.frombuffer(contig.sequence[ref_cursor:end], dtype=np.uint8)
                    read_slice = np.frombuffer(
                        seq[query_cursor : query_cursor + span].encode("ascii"), dtype=np.uint8
                    )
                    mism = ref_slice != read_slice
                    if mism.any():
                        qual_slice = np.asarray(
                            quals[query_cursor : query_cursor + span], dtype=np.float64
                        )
                        profile.mismatch_quality[ref_cursor:end][mism] += qual_slice[mism]
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


# -- genotyping ---------------------------------------------------------------


def edit_table(a: str, b: str) -> np.ndarray:
    """Unit-cost edit-distance table, one prefix-minimum row scan per row."""
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


def haplotype_variants(
    haplotype: str, ref_window: str, contig: str, window_start: int
) -> list[tuple[str, int, str, str]]:
    """The traceback over the full table, reading NumPy cells one by one."""
    a, b = ref_window, haplotype
    dp = edit_table(a, b)
    i, j = len(a), len(b)
    diffs: list[tuple[str, int, str, str]] = []
    pending_ins: list[tuple[int, str]] = []
    pending_del: list[tuple[int, str]] = []
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i, j] == dp[i - 1, j - 1] + (a[i - 1] != b[j - 1]):
            if a[i - 1] != b[j - 1]:
                diffs.append((contig, window_start + i - 1, a[i - 1], b[j - 1]))
            i -= 1
            j -= 1
        elif j > 0 and dp[i, j] == dp[i, j - 1] + 1:
            pending_ins.append((i, b[j - 1]))
            j -= 1
        else:
            pending_del.append((i - 1, a[i - 1]))
            i -= 1
    diffs.extend(_collapse_insertions(pending_ins, a, contig, window_start))
    diffs.extend(_collapse_deletions(pending_del, a, contig, window_start))
    diffs.sort(key=lambda d: d[1])
    return diffs
