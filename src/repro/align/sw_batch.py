"""Batched banded Smith-Waterman-Gotoh: one DP over a whole chain batch.

The scalar kernel (:func:`repro.align.smith_waterman.smith_waterman`) runs
one (query, reference) pair per call with a per-row Python scan for the
same-row E state.  Seed-and-extend alignment produces *batches* of such
pairs — every candidate chain of every read in a partition wants the same
banded DP — so this module pads the batch into dense tensors and runs a
single row loop vectorized over ``batch x columns``.

The same-row dependency E[j] = max(H[j-1] + open + extend, E[j-1] + extend)
is eliminated exactly: H enters E only through cells that do not themselves
come from E (opening a second gap immediately after a gap is never better
than extending the first one while ``gap_open <= 0``), so with
H0 = max(0, diagonal, F) the closed form

    E[j] = open + extend * j + max_{k < j}(H0[k] - extend * k)

is a running maximum — ``np.maximum.accumulate`` over the column axis.
The filled H/E/F matrices are cell-for-cell identical to the scalar
kernel's, so the shared three-state traceback yields identical
``AlignmentResult``s (scores, coordinates and CIGARs, not just scores to a
tolerance).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.align.smith_waterman import (
    NEG_INF,
    AlignmentResult,
    ScoringScheme,
    smith_waterman,
    traceback_alignment,
)

EMPTY_RESULT = AlignmentResult(0, 0, 0, 0, 0, ())


def smith_waterman_batch(
    pairs: Sequence[tuple[str, str]],
    scoring: ScoringScheme | None = None,
    band: int | None = None,
) -> list[AlignmentResult]:
    """Best local alignments for a batch of ``(query, reference)`` pairs.

    Equivalent to ``[smith_waterman(q, r, scoring, band) for q, r in pairs]``
    but with the DP recursion vectorized over the whole batch; ``band``
    applies to every pair (callers slice their reference windows so the
    seed diagonal is the main one, as in the scalar kernel).
    """
    s = scoring or ScoringScheme()
    if not pairs:
        return []
    if s.gap_open > 0:
        # The prefix-scan elimination of the same-row E dependency needs a
        # non-positive open cost; exotic scoring falls back to the scalar
        # kernel pair by pair.
        return [smith_waterman(q, r, s, band) for q, r in pairs]

    B = len(pairs)
    m_len = np.array([len(q) for q, _ in pairs], dtype=np.int64)
    n_len = np.array([len(r) for _, r in pairs], dtype=np.int64)
    m_max = int(m_len.max())
    n_max = int(n_len.max())
    if m_max == 0 or n_max == 0:
        return [EMPTY_RESULT] * B

    # Padded sequence tensors; 0 is a sentinel byte that never matches and
    # never equals 'N', and padded cells are masked out of the DP anyway.
    q_arr = np.zeros((B, m_max), dtype=np.uint8)
    r_arr = np.zeros((B, n_max), dtype=np.uint8)
    for b, (q, r) in enumerate(pairs):
        if q:
            q_arr[b, : len(q)] = np.frombuffer(q.encode("ascii"), dtype=np.uint8)
        if r:
            r_arr[b, : len(r)] = np.frombuffer(r.encode("ascii"), dtype=np.uint8)

    # One block for all three matrices: for aligner-sized batches it is
    # above glibc's adaptive mmap threshold (capped at 32 MiB), so it is
    # mapped and unmapped per batch.  Three separate ~23 MB matrices could
    # land in the heap instead, where fragmentation added ~20 MB to peak
    # RSS in some runs and not in others.
    H, E, F = np.zeros((3, B, m_max + 1, n_max + 1), dtype=np.int64)
    E.fill(NEG_INF)
    F.fill(NEG_INF)

    n_big = ord("N")
    r_is_n = r_arr == n_big
    go_ge = s.gap_open + s.gap_extend
    ge = s.gap_extend
    cols = np.arange(1, n_max + 1, dtype=np.int64)  # DP column index per slot
    col_in_ref = cols[None, :] <= n_len[:, None]
    # Per-column offset of the E closed form (see module docstring).
    scan_off = ge * np.arange(n_max + 1, dtype=np.int64)

    best = np.zeros(B, dtype=np.int64)
    best_i = np.zeros(B, dtype=np.int64)
    best_j = np.zeros(B, dtype=np.int64)

    for i in range(1, m_max + 1):
        valid = col_in_ref & (i <= m_len)[:, None]
        if band is not None:
            valid = valid & (cols[None, :] >= i - band) & (cols[None, :] <= i + band)
        if not valid.any():
            continue

        q_base = q_arr[:, i - 1][:, None]
        match = np.where(
            (q_base == r_arr) & (q_base != n_big) & ~r_is_n,
            s.match,
            s.mismatch,
        )
        diag = H[:, i - 1, :-1] + match
        f_row = np.maximum(H[:, i - 1, 1:] + go_ge, F[:, i - 1, 1:] + ge)
        # H without the same-row E contribution; cells outside the band (or
        # past a pair's real lengths) keep the scalar kernel's implicit 0.
        h0 = np.where(valid, np.maximum(0, np.maximum(diag, f_row)), 0)

        # E[j] = go_ge + ge*(j-1) + max_{k<=j-1}(Hscan[k] - ge*k), with
        # Hscan the row prefixed by the boundary column H[i, 0] = 0.
        scan = np.empty((B, n_max + 1), dtype=np.int64)
        scan[:, 0] = 0
        scan[:, 1:] = h0
        prefix = np.maximum.accumulate(scan - scan_off[None, :], axis=1)
        e_row = go_ge + scan_off[None, :n_max] + prefix[:, :-1]

        H[:, i, 1:] = np.where(valid, np.maximum(h0, e_row), 0)
        E[:, i, 1:] = np.where(valid, e_row, NEG_INF)
        F[:, i, 1:] = np.where(valid, f_row, NEG_INF)

        # Track the first strictly-improving cell in scan order (row-major,
        # argmax returns the first column of the row maximum), matching the
        # scalar kernel's tie-breaking exactly.
        row_scores = np.where(valid, H[:, i, 1:], -1)
        row_max = row_scores.max(axis=1)
        row_arg = row_scores.argmax(axis=1)
        improved = row_max > best
        best = np.where(improved, row_max, best)
        best_i = np.where(improved, i, best_i)
        best_j = np.where(improved, row_arg + 1, best_j)

    out: list[AlignmentResult] = []
    for b in range(B):
        if best[b] == 0:
            out.append(EMPTY_RESULT)
            continue
        out.append(
            traceback_alignment(
                q_arr[b, : m_len[b]],
                r_arr[b, : n_len[b]],
                s,
                H[b],
                E[b],
                F[b],
                int(best[b]),
                (int(best_i[b]), int(best_j[b])),
            )
        )
    return out
