"""Batched banded Smith-Waterman-Gotoh: one DP over a whole chain batch.

The scalar kernel (:func:`repro.align.smith_waterman.smith_waterman`) runs
one (query, reference) pair per call with a per-row Python scan for the
same-row E state.  Seed-and-extend alignment produces *batches* of such
pairs — every candidate chain of every read in a partition wants the same
banded DP — so this module resolves the batch in three steps, each exact
(results compare ``==`` to the scalar kernel's):

1. **Exact lanes skip the DP.**  With ``match > 0``, ``mismatch < match``
   and every gap base costing ``< 0``, ``m * match`` is the highest score a
   length-``m`` query can reach, and only a gapless full-length match
   reaches it.  H[i, j] <= i * match, so no row before ``m`` ties it; in
   row ``m`` the kernel's row-major first-strict-improvement scan with
   first-column argmax takes the leftmost such cell, i.e. the leftmost
   ``window.find(query)`` offset ``o``, if it lies in the band
   (``o <= band``).  Its traceback is ``m`` diagonal steps.  A query
   containing ``N`` (which never matches) always goes to the DP.
2. **Band-major DP.**  The remaining lanes are padded into dense tensors
   stored by diagonal: slot ``d`` of row ``i`` is column
   ``j = i - lo + d``, for the ``W = lo + hi + 1`` diagonals
   ``-lo <= j - i <= hi`` the band allows (every diagonal when ``band`` is
   ``None``), plus one guard slot that holds the out-of-band values
   (H 0, E/F ``NEG_INF``) for both edges: slot ``-1`` wraps onto it.  The
   diagonal predecessor (i-1, j-1) is slot ``d`` of the previous row, the
   F predecessor (i-1, j) slot ``d+1``, the E predecessor (i, j-1) slot
   ``d-1``.  Every cell inside a lane's matrix holds the scalar kernel's
   value; H is zeroed outside it, and E/F there are never read.  Values
   are int32 whenever the scores fit: H <= m * match, and the −10⁹
   sentinel only ever has a few bounded terms added before a max drops it.
3. **Lockstep traceback.**  Every DP lane walks the three-state H/E/F
   traceback of :func:`repro.align.smith_waterman.traceback_alignment`
   (same tie order: diagonal, then E, then F; stop on H == 0 or an edge)
   in one vectorised loop over the band arrays, a run of diagonal moves
   per step, and the ops are run-length encoded per lane at the end.

The same-row dependency E[j] = max(H[j-1] + open + extend, E[j-1] + extend)
is eliminated exactly: H enters E only through cells that do not themselves
come from E (opening a second gap immediately after a gap is never better
than extending the first one while ``gap_open <= 0``), so with
H0 = max(0, diagonal, F) the closed form

    E[d] = open + extend * d + max_{p <= d}(H0[p - 1] - extend * p)

is a running maximum — ``np.maximum.accumulate`` over the diagonal axis.
Position ``p - 1 = -1`` is the H = 0 cell left of the band; columns left
of column 0 do not exist and enter as ``NEG_INF``.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.align.smith_waterman import (
    NEG_INF,
    AlignmentResult,
    ScoringScheme,
    smith_waterman,
)

EMPTY_RESULT = AlignmentResult(0, 0, 0, 0, 0, ())

_N = ord("N")
#: Traceback op codes (0: the step emitted no op).
_OP_M, _OP_D, _OP_I = 1, 2, 3
_OP_NAMES = ("", "M", "D", "I")
#: Diagonal moves one traceback step may take.
_DIAG_RUN = 32


class SwWork:
    """Running tally of the work :func:`smith_waterman_batch` did.

    ``exact_lanes`` were resolved without the DP, ``dp_lanes`` ran it and
    ``dp_cells`` counts the cells stored per DP matrix (H, E and F each).
    All three are a pure function of the batches aligned.  A broadcast
    aligner is shared by the tasks of the threads backend, so updates take
    a lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.exact_lanes = 0
        self.dp_lanes = 0
        self.dp_cells = 0

    def add(self, exact_lanes: int, dp_lanes: int, dp_cells: int) -> None:
        with self._lock:
            self.exact_lanes += exact_lanes
            self.dp_lanes += dp_lanes
            self.dp_cells += dp_cells

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "exact_lanes": self.exact_lanes,
                "dp_lanes": self.dp_lanes,
                "dp_cells": self.dp_cells,
            }

    def __getstate__(self) -> dict[str, int]:
        return self.snapshot()

    def __setstate__(self, counts: dict[str, int]) -> None:
        self.__init__()
        self.add(**counts)


def smith_waterman_batch(
    pairs: Sequence[tuple[str, str]],
    scoring: ScoringScheme | None = None,
    band: int | None = None,
    work: SwWork | None = None,
) -> list[AlignmentResult]:
    """Best local alignments for a batch of ``(query, reference)`` pairs.

    Equivalent to ``[smith_waterman(q, r, scoring, band) for q, r in pairs]``
    (see the module docstring for how); ``band`` applies to every pair
    (callers slice their reference windows so the seed diagonal is the main
    one, as in the scalar kernel).  ``work``, if given, is charged with the
    lanes and cells this call used.
    """
    s = scoring or ScoringScheme()
    if not pairs:
        return []
    if s.gap_open > 0:
        # The prefix-scan elimination of the same-row E dependency needs a
        # non-positive open cost; exotic scoring falls back to the scalar
        # kernel pair by pair.
        return [smith_waterman(q, r, s, band) for q, r in pairs]

    out = [EMPTY_RESULT] * len(pairs)
    exact_ok = (
        s.match > 0
        and s.mismatch < s.match
        and s.gap_extend < 0
        and s.gap_open + s.gap_extend < 0
    )
    exact = 0
    dp: list[int] = []
    for idx, (query, window) in enumerate(pairs):
        m = len(query)
        if m == 0 or not window:
            continue
        if exact_ok and "N" not in query:
            o = window.find(query)
            if o >= 0 and (band is None or o <= band):
                out[idx] = AlignmentResult(m * s.match, 0, m, o, o + m, ((m, "M"),))
                exact += 1
                continue
        dp.append(idx)

    cells = 0
    if dp:
        cells = _banded_dp([pairs[idx] for idx in dp], s, band, dp, out)
    if work is not None:
        work.add(exact, len(dp), cells)
    return out


def _codes(seqs: list[str], width: int, n_code: int, pad: int) -> np.ndarray:
    """Byte codes of ``seqs`` padded to ``width``; ``N`` and padding get
    negative codes that equal nothing on the other side, so a plain ``==``
    is the scalar kernel's match test."""
    arr = np.full((len(seqs), width), pad, dtype=np.int16)
    for b, seq in enumerate(seqs):
        if seq:
            arr[b, : len(seq)] = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    arr[arr == _N] = n_code
    return arr


def _banded_dp(
    pairs: list[tuple[str, str]],
    s: ScoringScheme,
    band: int | None,
    lanes: list[int],
    out: list[AlignmentResult],
) -> int:
    """Band-major DP plus lockstep traceback for non-empty ``pairs``;
    writes ``out[lanes[b]]`` and returns the cells stored per matrix."""
    B = len(pairs)
    m_len = np.array([len(q) for q, _ in pairs], dtype=np.int64)
    n_len = np.array([len(r) for _, r in pairs], dtype=np.int64)
    m_max = int(m_len.max())
    n_max = int(n_len.max())
    # Diagonals j - i in [-lo, hi]: the band, clipped to cells that exist.
    lo = m_max - 1 if band is None else min(band, m_max - 1)
    hi = n_max - 1 if band is None else min(band, n_max - 1)
    W = lo + hi + 1
    row = W + 1  # one guard slot

    q = _codes([p[0] for p in pairs], m_max, -1, -3)
    r = _codes([p[1] for p in pairs], n_max, -2, -4)
    # Reference codes by diagonal slot: row i reads rd[:, i-1 : i-1+W].
    rd = np.full((B, m_max + W - 1), -4, dtype=np.int16)
    take = min(n_max, rd.shape[1] - lo)
    rd[:, lo : lo + take] = r[:, :take]

    go_ge = s.gap_open + s.gap_extend
    ge = s.gap_extend
    scale = max(abs(s.match), abs(s.mismatch), abs(go_ge), abs(ge), 1)
    fits32 = scale * (m_max + n_max + 2) < 2**30
    dtype = np.int32 if fits32 else np.int64
    match, mismatch = dtype(s.match), dtype(s.mismatch)

    # Row-first layout: row i of all lanes is one contiguous (B, row) block.
    H, E, F = np.empty((3, m_max + 1, B, row), dtype=dtype)
    H[0] = 0
    E[0] = NEG_INF
    F[0] = NEG_INF
    H[:, :, W] = 0
    E[:, :, W] = NEG_INF
    F[:, :, W] = NEG_INF

    # E closed-form offset per scan position (see module docstring).
    scan_off = (ge * np.arange(row, dtype=np.int64)).astype(dtype)
    e_off = go_ge + scan_off[:W]
    scan = np.empty((B, row), dtype=dtype)
    # Slot d of row i is column j = i - lo + d, inside lane b's reference
    # iff 1 <= j <= n_len[b]: row i's mask is the sliding view in_ref[:, i : i+W].
    x = np.arange(m_max + W)
    in_ref = (x >= lo + 1)[None, :] & (x[None, :] <= (n_len + lo)[:, None])
    row_max = np.zeros((m_max + 1, B), dtype=dtype)

    for i in range(1, m_max + 1):
        valid = in_ref[:, i : i + W] & (i <= m_len)[:, None]
        hp = H[i - 1]
        diag = hp[:, :W] + np.where(
            q[:, i - 1][:, None] == rd[:, i - 1 : i - 1 + W], match, mismatch
        )
        f_row = np.maximum(hp[:, 1:] + go_ge, F[i - 1, :, 1:] + ge)
        # H without the same-row E contribution; cells outside the band (or
        # past a pair's real lengths) keep the scalar kernel's implicit 0.
        h0 = np.maximum(diag, f_row)
        np.maximum(h0, 0, out=h0)
        h0 *= valid

        scan[:, 1:] = h0
        # Scan position p is column i - lo + p - 1; columns left of column
        # 0 do not exist (under a positive ``gap_extend`` they would lengthen
        # every gap), and column 0 is the H = 0 boundary.
        scan[:, 0] = 0
        scan[:, : max(lo - i + 1, 0)] = NEG_INF
        prefix = np.maximum.accumulate(scan - scan_off, axis=1)
        e_row = e_off + prefix[:, :-1]

        # Only H is masked: E and F outside a lane's matrix reach no valid
        # cell and the traceback reads them only at valid cells.
        h_row = H[i, :, :W]
        np.maximum(h0, e_row, out=h_row)
        h_row *= valid
        E[i, :, :W] = e_row
        F[i, :, :W] = f_row
        h_row.max(axis=1, out=row_max[i])

    # The scalar kernel keeps the first strictly-improving cell in
    # row-major order: the first row reaching the lane's maximum, and in it
    # the first slot (slots run in column order).  Invalid slots hold 0.
    best = row_max.max(axis=0)
    best_i = row_max.argmax(axis=0)
    best_d = H[best_i, np.arange(B), :W].argmax(axis=1)

    _traceback(H, E, F, q, r, s, lo, best, best_i, best_d, lanes, out)
    return B * (m_max + 1) * row


def _traceback(H, E, F, q, r, s, lo, best, best_i, best_d, lanes, out) -> None:
    """Three-state traceback of every lane with ``best > 0`` in lockstep.

    One step per op, except that a lane in the H state takes a whole run
    of up to ``_DIAG_RUN`` diagonal moves at once: the scalar walk would
    test the same cells one by one and take the diagonal at each.
    """
    live = np.flatnonzero(best > 0)
    if not live.size:
        return
    _, B, row = H.shape
    Hf, Ef, Ff = H.ravel(), E.ravel(), F.ravel()
    qf, rf = q.ravel(), r.ravel()
    m_max, n_max = q.shape[1], r.shape[1]
    go_ge = s.gap_open + s.gap_extend
    stride = B * row  # flat distance between rows
    run = np.arange(_DIAG_RUN)

    L = live.size
    # Per lane, the (op, count) it emitted at each step, last op first.
    ops = np.zeros((L, m_max + n_max), dtype=np.int8)
    counts = np.zeros((L, m_max + n_max), dtype=np.int64)
    n_ops = np.zeros(L, dtype=np.int64)
    # Where each lane's walk stopped: the alignment's query and reference start.
    end_i = np.zeros(L, dtype=np.int64)
    end_j = np.zeros(L, dtype=np.int64)

    # Per active lane: index into ``live``, lane, row, slot, state (0 H, 1 E, 2 F).
    t = np.arange(L)
    b = live
    ii = best_i[live].copy()
    dd = best_d[live].copy()
    st = np.zeros(L, dtype=np.int64)
    while t.size:
        jj = ii + dd - lo
        pos = ii * stride + b * row + dd % row  # slot -1 wraps onto the guard
        h = Hf[pos]
        done = (ii <= 0) | (jj <= 0) | ((st == 0) & (h == 0))
        if done.any():
            end_i[t[done]] = ii[done]
            end_j[t[done]] = jj[done]
            keep = ~done
            t, b, ii, dd, st, jj, pos, h = (
                x[keep] for x in (t, b, ii, dd, st, jj, pos, h)
            )
            if not t.size:
                break
        in_h, in_e, in_f = st == 0, st == 1, st == 2

        # Diagonal run from (i, j): cell k steps up the diagonal is taken
        # iff it is inside the matrix, nonzero, and H - match == H(i-1, j-1).
        up = ii[:, None] - run
        inside = (up > 0) & (jj[:, None] - run > 0)
        cell = np.where(inside, pos[:, None] - run * stride, pos[:, None])
        walk_h = Hf[cell]
        q_at = np.where(inside, b[:, None] * m_max + up - 1, 0)
        r_at = np.where(inside, b[:, None] * n_max + jj[:, None] - run - 1, 0)
        step = np.where(qf[q_at] == rf[r_at], s.match, s.mismatch)
        diag = inside & (walk_h != 0) & (walk_h == Hf[cell - stride] + step)
        n_diag = np.where(in_h, np.logical_and.accumulate(diag, axis=1).sum(axis=1), 0)

        stay = in_h & (n_diag == 0)
        to_e = stay & (h == Ef[pos])
        to_f = stay & ~to_e
        if (to_f & (h != Ff[pos])).any():  # pragma: no cover - defensive
            raise AssertionError("traceback inconsistency in smith_waterman_batch (H)")
        # E: a deletion consumes a reference base; F: an insertion a query base.
        close_e = in_e & (Ef[pos] == Hf[ii * stride + b * row + (dd - 1) % row] + go_ge)
        close_f = in_f & (
            Ff[pos] == Hf[(ii - 1) * stride + b * row + (dd + 1) % row] + go_ge
        )

        op = np.where(n_diag > 0, _OP_M, np.where(in_e, _OP_D, np.where(in_f, _OP_I, 0)))
        emit = op != 0
        at = t[emit]
        ops[at, n_ops[at]] = op[emit]
        counts[at, n_ops[at]] = np.maximum(n_diag, 1)[emit]
        n_ops[at] += 1
        ii = ii - n_diag - in_f
        dd = dd + in_f - in_e
        st = np.where(to_e, 1, np.where(to_f, 2, np.where(close_e | close_f, 0, st)))

    # Run-length encode every lane's ops, read back to front.
    total = int(n_ops.sum())
    owner = np.repeat(np.arange(L), n_ops)
    first = np.cumsum(n_ops) - n_ops
    back = n_ops[owner] - 1 - (np.arange(total) - first[owner])
    codes = ops[owner, back]
    starts = np.flatnonzero(
        np.concatenate(
            ([True], (codes[1:] != codes[:-1]) | (owner[1:] != owner[:-1]))
        )
    )
    run_len = np.add.reduceat(counts[owner, back], starts).tolist()
    run_op = codes[starts].tolist()
    run_owner = owner[starts].tolist()
    cigars: list[list[tuple[int, str]]] = [[] for _ in range(L)]
    for k, length in enumerate(run_len):
        cigars[run_owner[k]].append((length, _OP_NAMES[run_op[k]]))

    scores = best[live].tolist()
    q_end = best_i[live].tolist()
    r_end = (best_i[live] + best_d[live] - lo).tolist()
    q_start, r_start = end_i.tolist(), end_j.tolist()
    for k, lane in enumerate(live.tolist()):
        out[lanes[lane]] = AlignmentResult(
            scores[k], q_start[k], q_end[k], r_start[k], r_end[k], tuple(cigars[k])
        )
