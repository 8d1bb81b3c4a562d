"""Banded affine-gap local alignment (Smith-Waterman-Gotoh).

The extension kernel of the seed-and-extend aligner.  The dynamic program
runs row-by-row over the query with NumPy-vectorized reference columns
inside a diagonal band, exactly the work profile of BWA-MEM's ksw extension
(whose CPU-bound behaviour the paper's Fig. 13 highlights).

Scores follow BWA-MEM defaults: match +1, mismatch -4, gap open -6,
gap extend -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEG_INF = -(10**9)


@dataclass(frozen=True, slots=True)
class ScoringScheme:
    match: int = 1
    mismatch: int = -4
    gap_open: int = -6  # charged on the first gap base, in addition to extend
    gap_extend: int = -1


@dataclass(frozen=True, slots=True)
class AlignmentResult:
    """A local alignment of query against reference."""

    score: int
    query_start: int  # 0-based, inclusive
    query_end: int  # exclusive
    ref_start: int
    ref_end: int
    cigar_pairs: tuple[tuple[int, str], ...]  # (length, op) over [query_start, query_end)


def smith_waterman(
    query: str,
    reference: str,
    scoring: ScoringScheme | None = None,
    band: int | None = None,
) -> AlignmentResult:
    """Best local alignment of ``query`` within ``reference``.

    ``band`` restricts |i - j - offset| <= band around the main diagonal
    (offset 0); callers extending from a seed slice the reference so the
    seed diagonal is the main one.  ``None`` disables banding.
    """
    s = scoring or ScoringScheme()
    m, n = len(query), len(reference)
    if m == 0 or n == 0:
        return AlignmentResult(0, 0, 0, 0, 0, ())

    q = np.frombuffer(query.encode("ascii"), dtype=np.uint8)
    r = np.frombuffer(reference.encode("ascii"), dtype=np.uint8)

    # H: best score ending at (i, j); E: gap in query (deletion from ref
    # consumes ref); F: gap in reference (insertion consumes query).
    H = np.zeros((m + 1, n + 1), dtype=np.int64)
    E = np.full((m + 1, n + 1), NEG_INF, dtype=np.int64)
    F = np.full((m + 1, n + 1), NEG_INF, dtype=np.int64)

    # 'N' in either sequence scores as mismatch (never a match).
    n_mask_r = r == ord("N")

    best = 0
    best_pos = (0, 0)
    cols = np.arange(1, n + 1)
    for i in range(1, m + 1):
        if band is not None:
            j_lo = max(1, i - band)
            j_hi = min(n, i + band)
            if j_lo > j_hi:
                continue
            jj = cols[j_lo - 1 : j_hi]
        else:
            jj = cols
        match_scores = np.where(
            (q[i - 1] == r[jj - 1]) & (q[i - 1] != ord("N")) & ~n_mask_r[jj - 1],
            s.match,
            s.mismatch,
        )
        diag = (H[i - 1, jj - 1] + match_scores).tolist()
        # F (query gap / I op): from previous row, same column — vectorizable.
        F[i, jj] = np.maximum(
            H[i - 1, jj] + s.gap_open + s.gap_extend, F[i - 1, jj] + s.gap_extend
        )
        f_list = F[i, jj].tolist()
        # E (ref gap / D op): same row, previous column — a sequential scan.
        # Run it over plain Python ints; NumPy scalar indexing in a tight
        # loop is ~20x slower.
        go_ge = s.gap_open + s.gap_extend
        ge = s.gap_extend
        j0 = int(jj[0])
        e_vals = [0] * len(diag)
        h_vals = [0] * len(diag)
        prev_h = int(H[i, j0 - 1])
        prev_e = NEG_INF
        for idx in range(len(diag)):
            prev_e = max(prev_h + go_ge, prev_e + ge)
            e_vals[idx] = prev_e
            score = diag[idx]
            if prev_e > score:
                score = prev_e
            if f_list[idx] > score:
                score = f_list[idx]
            if score < 0:
                score = 0
            h_vals[idx] = score
            prev_h = score
            if score > best:
                best = score
                best_pos = (i, j0 + idx)
        H[i, jj] = h_vals
        E[i, jj] = e_vals
    if best == 0:
        return AlignmentResult(0, 0, 0, 0, 0, ())
    return traceback_alignment(q, r, s, H, E, F, best, best_pos)


def traceback_alignment(
    q: np.ndarray,
    r: np.ndarray,
    s: ScoringScheme,
    H: np.ndarray,
    E: np.ndarray,
    F: np.ndarray,
    best: int,
    best_pos: tuple[int, int],
) -> AlignmentResult:
    """Three-state (H/E/F) traceback over filled DP matrices.

    Affine gap runs are attributed correctly by walking the explicit E/F
    states.  The batched kernel
    (:func:`repro.align.sw_batch.smith_waterman_batch`) walks the same
    states, in the same tie order, for a whole batch at once.
    """
    n_mask_r = r == ord("N")
    i, j = best_pos
    ops: list[str] = []
    state = "H"
    while i > 0 and j > 0:
        if state == "H":
            here = H[i, j]
            if here == 0:
                break
            match_score = (
                s.match
                if (
                    q[i - 1] == r[j - 1]
                    and q[i - 1] != ord("N")
                    and not n_mask_r[j - 1]
                )
                else s.mismatch
            )
            if here == H[i - 1, j - 1] + match_score:
                ops.append("M")
                i -= 1
                j -= 1
            elif here == E[i, j]:
                state = "E"
            elif here == F[i, j]:
                state = "F"
            else:  # pragma: no cover - defensive
                raise AssertionError("traceback inconsistency in smith_waterman (H)")
        elif state == "E":
            # Deletion from the reference: consumes a reference base.
            ops.append("D")
            if E[i, j] == H[i, j - 1] + s.gap_open + s.gap_extend:
                state = "H"
            j -= 1
        else:  # state == "F": insertion, consumes a query base.
            ops.append("I")
            if F[i, j] == H[i - 1, j] + s.gap_open + s.gap_extend:
                state = "H"
            i -= 1
    ops.reverse()
    cigar = _run_length(ops)
    return AlignmentResult(
        score=int(best),
        query_start=i,
        query_end=best_pos[0],
        ref_start=j,
        ref_end=best_pos[1],
        cigar_pairs=tuple(cigar),
    )


def _run_length(ops: list[str]) -> list[tuple[int, str]]:
    out: list[tuple[int, str]] = []
    for op in ops:
        if out and out[-1][1] == op:
            out[-1] = (out[-1][0] + 1, op)
        else:
            out.append((1, op))
    return out


def global_alignment_score(a: str, b: str, scoring: ScoringScheme | None = None) -> int:
    """Needleman-Wunsch score, used by the indel realigner's consensus test."""
    s = scoring or ScoringScheme()
    m, n = len(a), len(b)
    prev = np.array(
        [0] + [s.gap_open + s.gap_extend * k for k in range(1, n + 1)], dtype=np.int64
    )
    qa = np.frombuffer(a.encode("ascii"), dtype=np.uint8)
    qb = np.frombuffer(b.encode("ascii"), dtype=np.uint8)
    for i in range(1, m + 1):
        curr = np.empty(n + 1, dtype=np.int64)
        curr[0] = s.gap_open + s.gap_extend * i
        match = np.where(qa[i - 1] == qb, s.match, s.mismatch)
        # Linear-gap recurrence with the open cost folded into every gap
        # base; exact affine handling is unnecessary for the realigner's
        # tiny consensus windows where this score only ranks alternatives.
        for j in range(1, n + 1):
            curr[j] = max(
                prev[j - 1] + match[j - 1],
                prev[j] + s.gap_open + s.gap_extend,
                curr[j - 1] + s.gap_open + s.gap_extend,
            )
        prev = curr
    return int(prev[n])
