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
2. **Band-major DP in rolling rows.**  The remaining lanes are padded and
   stored by diagonal: slot ``d`` of row ``i`` is column ``j = i - lo + d``
   for the ``W = lo + hi + 1`` diagonals ``-lo <= j - i <= hi`` the band
   allows (all when ``band`` is ``None``), plus a guard slot of out-of-band
   values (H 0, F ``NEG_INF``) for both edges: slot ``-1`` wraps onto it.
   A row of all lanes is one contiguous ``(W+1, lanes)`` block, so the
   predecessors (i-1, j-1), (i-1, j) and (i, j-1) are slots ``d``, ``d+1``
   of the previous row and ``d-1`` of this one.  H and F keep two rolling
   rows, E one; inside a lane's matrix each holds the scalar kernel's value
   (int32 whenever the scores fit), and H is 0 outside it.  The traceback
   reads a ``(m_max+1, W+1, lanes)`` ``uint8`` matrix: per cell, the five
   facts listed at ``_H0``; row 0 and the guard slot read "H is 0".
3. **Lockstep traceback.**  Every DP lane walks the three-state H/E/F
   traceback of :func:`repro.align.smith_waterman.traceback_alignment`
   (same tie order: diagonal, then E, then F; stop on H == 0 or an edge)
   in one vectorised loop over the traceback bytes, a run of diagonal
   moves per step, and the ops are run-length encoded per lane at the end.

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
#: Traceback byte bits: H == 0; H == H(i-1, j-1) + s (with H != 0: the
#: diagonal move is taken); H == E; E opened from H(i, j-1); F opened from
#: H(i-1, j).
_H0, _DIAG, _H_IS_E, _E_OPEN, _F_OPEN = 1, 2, 4, 8, 16


class SwWork:
    """Running tally of the work :func:`smith_waterman_batch` did.

    ``exact_lanes`` were resolved without the DP, ``dp_lanes`` ran it and
    ``dp_cells`` counts its one-byte traceback cells (module docstring,
    step 2).  All three are a pure function of the batches aligned.  A
    broadcast aligner is shared by the tasks of the threads backend, so
    updates take a lock.
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
    writes ``out[lanes[b]]`` and returns the traceback cells stored."""
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

    q = np.ascontiguousarray(_codes([p[0] for p in pairs], m_max, -1, -3).T)
    # Reference codes by diagonal slot: row i reads rd[i-1 : i-1+W].
    rd = np.full((m_max + W - 1, B), -4, dtype=np.int16)
    take = min(n_max, rd.shape[0] - lo)
    rd[lo : lo + take] = _codes([p[1] for p in pairs], n_max, -2, -4)[:, :take].T

    go_ge = s.gap_open + s.gap_extend
    ge = s.gap_extend
    scale = max(abs(s.match), abs(s.mismatch), abs(go_ge), abs(ge), 1)
    fits32 = scale * (m_max + n_max + 2) < 2**30
    dtype = np.int32 if fits32 else np.int64
    mismatch, gain = dtype(s.mismatch), dtype(s.match - s.mismatch)

    # Rolling rows.  An H row sits between two zero slots: ``h_buf[0]``
    # (left of slot 0) makes ``h_buf[:W]`` the E predecessors, slots d-1,
    # and ``h_buf[W+1]`` is the guard slot.
    h_bufs = np.zeros((2, W + 2, B), dtype=dtype)
    f_bufs = np.full((2, row, B), NEG_INF, dtype=dtype)
    tb = np.zeros((m_max + 1, row, B), dtype=np.uint8)
    tb[0] = _H0
    tb[:, W] = _H0

    # E closed-form offset per scan position (see module docstring).
    scan_off = (ge * np.arange(row, dtype=np.int64)).astype(dtype)[:, None]
    e_off = go_ge + scan_off[:W]
    scan = np.empty((row, B), dtype=dtype)
    prefix = np.empty((row, B), dtype=dtype)
    diag, h_open, e_row, e_open = np.empty((4, W, B), dtype=dtype)
    bits = np.empty((5, W, B), dtype=bool)  # a row's facts, bit k in plane k
    # Slot d of row i is column j = i - lo + d, inside lane b's reference
    # iff 1 <= j <= n_len[b]: row i's mask is the sliding view in_ref[i : i+W].
    x = np.arange(m_max + W)[:, None]
    in_ref = ((x >= lo + 1) & (x <= n_len + lo)).astype(dtype)
    row_max = np.zeros((m_max + 1, B), dtype=dtype)
    row_arg = np.zeros((m_max + 1, B), dtype=np.intp)
    lane_ids = np.arange(B)

    for i in range(1, m_max + 1):
        hp, fp = h_bufs[i & 1][1:], f_bufs[i & 1]
        h_buf, f_row = h_bufs[~i & 1], f_bufs[~i & 1][:W]
        h_row = h_buf[1 : W + 1]
        np.equal(rd[i - 1 : i - 1 + W], q[i - 1], out=bits[1])
        np.multiply(bits[1], gain, out=diag)
        diag += hp[:W]
        diag += mismatch
        np.add(hp[1:], go_ge, out=h_open)
        np.add(fp[1:], ge, out=f_row)
        np.maximum(h_open, f_row, out=f_row)
        # H without the same-row E contribution is scan positions 1..W;
        # position p is column i - lo + p - 1.  Columns left of column 0
        # do not exist (under a positive ``gap_extend`` they would
        # lengthen every gap); column 0 is an H = 0 boundary.
        h0 = scan[1:]
        np.maximum(diag, f_row, out=h0)
        np.maximum(h0, 0, out=h0)
        c0 = max(lo - i + 1, 0)
        scan[:c0] = NEG_INF
        scan[c0] = 0
        np.subtract(scan, scan_off, out=prefix)
        np.maximum.accumulate(prefix, axis=0, out=prefix)
        np.add(prefix[:W], e_off, out=e_row)

        # Outside a lane's matrix H is 0 (rows past its query are dropped
        # below); E and F there reach no valid cell, and no bit is read.
        np.maximum(h0, e_row, out=h_row)
        h_row *= in_ref[i : i + W]
        h_row.argmax(axis=0, out=row_arg[i])
        row_max[i] = h_row[row_arg[i], lane_ids]

        np.add(h_buf[:W], go_ge, out=e_open)
        facts = (h_row, 0), (h_row, diag), (h_row, e_row), (e_row, e_open), (f_row, h_open)
        for plane, (a, b) in zip(bits, facts):
            np.equal(a, b, out=plane)
        cell = tb[i, :W]
        for plane in bits.view(np.uint8)[::-1]:  # bit 4 first; doubling is an add
            cell += cell
            cell |= plane

    # The scalar kernel keeps the first strictly-improving cell in
    # row-major order: the first row reaching the lane's maximum, and in it
    # the first slot (slots run in column order).  Invalid cells hold 0.
    row_max[np.arange(m_max + 1)[:, None] > m_len] = 0
    best = row_max.max(axis=0)
    best_i = row_max.argmax(axis=0)
    best_d = row_arg[best_i, lane_ids]

    _traceback(tb, m_max, n_max, lo, best, best_i, best_d, lanes, out)
    return tb.size


def _traceback(tb, m_max, n_max, lo, best, best_i, best_d, lanes, out) -> None:
    """Three-state traceback of every lane with ``best > 0`` in lockstep.

    One step per op, except that a lane in the H state takes a whole run
    of up to ``_DIAG_RUN`` diagonal moves at once: the scalar walk would
    test the same cells one by one and take the diagonal at each.
    """
    live = np.flatnonzero(best > 0)
    if not live.size:
        return
    _, row, B = tb.shape
    tbf = tb.ravel()
    stride = row * B  # flat distance between rows
    run = np.arange(_DIAG_RUN)

    L = live.size
    # Per lane, the (op, count) it emitted at each step, last op first.
    ops = np.zeros((L, m_max + n_max), dtype=np.int8)
    counts = np.zeros((L, m_max + n_max), dtype=np.int8)
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
        pos = ii * stride + (dd % row) * B + b  # slot -1 wraps onto the guard
        here = tbf[pos]
        done = (ii <= 0) | (jj <= 0) | ((st == 0) & (here & _H0 != 0))
        if done.any():
            end_i[t[done]] = ii[done]
            end_j[t[done]] = jj[done]
            keep = ~done
            t, b, ii, dd, st, jj, pos, here = (
                x[keep] for x in (t, b, ii, dd, st, jj, pos, here)
            )
            if not t.size:
                break
        in_h, in_e, in_f = st == 0, st == 1, st == 2

        # Diagonal run from (i, j): cell k steps up the diagonal is taken
        # iff it is inside the matrix and its byte says so.
        inside = (ii[:, None] - run > 0) & (jj[:, None] - run > 0)
        cell = np.where(inside, pos[:, None] - run * stride, pos[:, None])
        diag = inside & (tbf[cell] & (_H0 | _DIAG) == _DIAG)
        n_diag = np.where(in_h, np.logical_and.accumulate(diag, axis=1).sum(axis=1), 0)

        stay = in_h & (n_diag == 0)
        to_e = stay & (here & _H_IS_E != 0)
        to_f = stay & ~to_e
        # E: a deletion consumes a reference base; F: an insertion a query base.
        close_e = in_e & (here & _E_OPEN != 0)
        close_f = in_f & (here & _F_OPEN != 0)

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
    run_len = np.add.reduceat(counts[owner, back], starts, dtype=np.int64).tolist()
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
