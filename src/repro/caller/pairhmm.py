"""Pair-HMM read-likelihood computation.

P(read | haplotype): the probability that the haplotype, observed through
a sequencer with the read's per-base quality profile, would produce this
read.  Three-state HMM (Match / Insert / Delete) with quality-derived
emission probabilities, computed in log space row by row.

This is the WGS pipeline's dominant compute kernel (paper Fig. 13: the
Caller phase is CPU-bound), so it comes in two forms:

- :meth:`PairHMM.log_likelihood` — the scalar reference kernel: one
  (read, haplotype) pair, NumPy-vectorized over haplotype columns except
  D's within-row dependency, which runs as a per-column Python scan.
- :meth:`PairHMM.batch_log_likelihoods` — the batched kernel behind
  :meth:`PairHMM.likelihood_matrix`: every (read, haplotype) pair of an
  active region is padded into dense tensors and ONE forward recursion
  runs vectorized over ``pairs x haplotype-columns``.  Only the read-row
  loop survives in Python; the per-pair, per-haplotype and per-column D
  loops all disappear.  D's same-row dependency is eliminated *exactly*:
  D[j] = logaddexp(M[j-1] + go, D[j-1] + ge) unrolls to the closed form
  D[j] = go + j*ge + logcumsumexp(M[k-1] - k*ge), a single
  ``np.logaddexp.accumulate`` along the column axis.

``likelihood_matrix`` additionally dedups work through a content-addressed
:class:`~repro.caller.likelihood_cache.LikelihoodCache`, so identical
(read, quals, haplotype) triples — within a region or across regions —
are computed once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.caller.likelihood_cache import DEFAULT_MAX_ENTRIES, LikelihoodCache

LOG_ZERO = -1e30


def _log(x: np.ndarray | float) -> np.ndarray | float:
    return np.log(np.maximum(x, 1e-300))


class PairHMM:
    """Log-space forward algorithm over (read x haplotype)."""

    def __init__(
        self,
        gap_open_phred: float = 45.0,
        gap_extend_phred: float = 10.0,
        cache: LikelihoodCache | None = None,
        cache_size: int = DEFAULT_MAX_ENTRIES,
    ):
        self.gap_open = 10.0 ** (-gap_open_phred / 10.0)
        self.gap_extend = 10.0 ** (-gap_extend_phred / 10.0)
        #: Content-addressed dedup cache consulted by likelihood_matrix;
        #: pass cache_size=0 to disable caching entirely.
        if cache is not None:
            self.cache: LikelihoodCache | None = cache
        else:
            self.cache = LikelihoodCache(cache_size) if cache_size > 0 else None

    def log_likelihood(
        self, read: str, quals: list[int] | np.ndarray, haplotype: str
    ) -> float:
        """log P(read | haplotype) via the forward algorithm."""
        m, n = len(read), len(haplotype)
        if m == 0 or n == 0:
            return LOG_ZERO

        read_arr = np.frombuffer(read.encode("ascii"), dtype=np.uint8)
        hap_arr = np.frombuffer(haplotype.encode("ascii"), dtype=np.uint8)
        q = np.asarray(quals, dtype=np.float64)
        base_error = 10.0 ** (-q / 10.0)

        log_go = float(_log(self.gap_open))
        log_ge = float(_log(self.gap_extend))
        log_no_gap = float(_log(1.0 - 2.0 * self.gap_open))
        log_gap_to_match = float(_log(1.0 - self.gap_extend))

        # Emission matrices per row are computed on the fly.
        # prev/cur rows for M, I, D.
        neg = np.full(n + 1, LOG_ZERO)
        m_prev = neg.copy()
        i_prev = neg.copy()
        d_prev = neg.copy()
        # Initialization: the alignment may start anywhere on the haplotype
        # (free left flank): D row 0 = uniform over start positions.
        d_prev[:] = float(-np.log(n))
        d_prev[0] = LOG_ZERO

        match_mask_cache = hap_arr
        for i in range(1, m + 1):
            base = read_arr[i - 1]
            err = base_error[i - 1]
            match_p = np.where(
                (match_mask_cache == base)
                & (base != ord("N"))
                & (match_mask_cache != ord("N")),
                1.0 - err,
                err / 3.0,
            )
            log_emit = np.log(match_p)  # length n, for haplotype cols 1..n

            m_cur = neg.copy()
            i_cur = neg.copy()
            d_cur = neg.copy()

            # Match: from (i-1, j-1) in M, I or D.
            stay = np.logaddexp(
                m_prev[:-1] + log_no_gap,
                np.logaddexp(i_prev[:-1], d_prev[:-1]) + log_gap_to_match,
            )
            m_cur[1:] = log_emit + stay

            # Insert (read base consumed, haplotype stays): from (i-1, j).
            i_cur[1:] = np.logaddexp(
                m_prev[1:] + log_go, i_prev[1:] + log_ge
            )
            i_cur[0] = np.logaddexp(m_prev[0] + log_go, i_prev[0] + log_ge)

            # Delete (haplotype base consumed): same-row dependency —
            # a sequential scan over columns, run on Python floats.
            mc = m_cur.tolist()
            dc = d_cur.tolist()
            prev_d = LOG_ZERO
            for j in range(1, n + 1):
                from_m = mc[j - 1] + log_go
                from_d = prev_d + log_ge
                val = from_m if from_m > from_d else from_d
                # logaddexp on scalars
                lo, hi = (from_m, from_d) if from_m < from_d else (from_d, from_m)
                if hi - lo > 50 or lo <= LOG_ZERO / 2:
                    dc[j] = hi
                else:
                    dc[j] = hi + np.log1p(np.exp(lo - hi))
                prev_d = dc[j]
                _ = val
            d_cur = np.asarray(dc)

            m_prev, i_prev, d_prev = m_cur, i_cur, d_cur

        # Free right flank: sum over all end columns of M and I.
        final = np.logaddexp(m_prev[1:], i_prev[1:])
        return float(np.logaddexp.reduce(final))

    def likelihood_matrix(
        self,
        reads: list[tuple[str, list[int]]],
        haplotypes: list[str],
    ) -> np.ndarray:
        """(num_reads x num_haplotypes) log-likelihood matrix.

        Runs the batched forward recursion over every (read, haplotype)
        pair at once; identical triples are deduped within the call and,
        through the content-addressed cache, across calls (overlapping
        regions, duplicate reads, rediscovered haplotypes).
        """
        out = np.empty((len(reads), len(haplotypes)), dtype=np.float64)
        #: key -> the triple to compute (first occurrence).
        pending: dict[bytes, tuple[str, Sequence[int], str]] = {}
        #: key -> matrix cells awaiting that value.
        slots: dict[bytes, list[tuple[int, int]]] = {}
        for i, (seq, quals) in enumerate(reads):
            for j, hap in enumerate(haplotypes):
                if not seq or not hap:
                    out[i, j] = LOG_ZERO
                    continue
                key = LikelihoodCache.key(seq, quals, hap)
                if key not in pending:
                    cached = self.cache.get(key) if self.cache is not None else None
                    if cached is not None:
                        out[i, j] = cached
                        continue
                    pending[key] = (seq, quals, hap)
                slots.setdefault(key, []).append((i, j))
        if pending:
            values = self.batch_log_likelihoods(list(pending.values()))
            for key, value in zip(pending, values):
                if self.cache is not None:
                    self.cache.put(key, value)
                for cell in slots[key]:
                    out[cell] = value
        return out

    def likelihood_matrix_scalar(
        self,
        reads: list[tuple[str, list[int]]],
        haplotypes: list[str],
    ) -> np.ndarray:
        """The pre-batching reference path: one forward pass per pair."""
        out = np.empty((len(reads), len(haplotypes)), dtype=np.float64)
        for i, (seq, quals) in enumerate(reads):
            for j, hap in enumerate(haplotypes):
                out[i, j] = self.log_likelihood(seq, quals, hap)
        return out

    def batch_log_likelihoods(
        self, items: Sequence[tuple[str, Sequence[int], str]]
    ) -> np.ndarray:
        """log P(read | haplotype) for a batch of (read, quals, haplotype)
        triples via ONE forward recursion vectorized over the batch.

        Matches :meth:`log_likelihood` on every triple to well below 1e-6:
        the recurrences are identical except that D's same-row scan is the
        exact log-space closed form instead of the scalar kernel's
        thresholded scan (which drops terms below exp(-50))."""
        P = len(items)
        out = np.full(P, LOG_ZERO, dtype=np.float64)
        live = [p for p, (seq, _, hap) in enumerate(items) if seq and hap]
        if not live:
            return out

        m_len = np.array([len(items[p][0]) for p in live], dtype=np.int64)
        n_len = np.array([len(items[p][2]) for p in live], dtype=np.int64)
        m_max = int(m_len.max())
        n_max = int(n_len.max())
        L = len(live)

        # Padded tensors; byte 0 never matches a base and padded error
        # probabilities are benign (their rows/columns are masked out).
        read_arr = np.zeros((L, m_max), dtype=np.uint8)
        hap_arr = np.zeros((L, n_max), dtype=np.uint8)
        # 0.5 keeps padded emission probabilities strictly positive (their
        # rows are masked out; this only avoids log(0) warnings).
        base_error = np.full((L, m_max), 0.5, dtype=np.float64)
        for row, p in enumerate(live):
            seq, quals, hap = items[p]
            read_arr[row, : len(seq)] = np.frombuffer(
                seq.encode("ascii"), dtype=np.uint8
            )
            hap_arr[row, : len(hap)] = np.frombuffer(
                hap.encode("ascii"), dtype=np.uint8
            )
            q = np.asarray(quals, dtype=np.float64)
            base_error[row, : len(seq)] = 10.0 ** (-q / 10.0)

        log_go = float(_log(self.gap_open))
        log_ge = float(_log(self.gap_extend))
        log_no_gap = float(_log(1.0 - 2.0 * self.gap_open))
        log_gap_to_match = float(_log(1.0 - self.gap_extend))
        n_big = ord("N")
        hap_is_n = hap_arr == n_big

        m_state = np.full((L, n_max + 1), LOG_ZERO)
        i_state = np.full((L, n_max + 1), LOG_ZERO)
        # Free left flank: D row 0 = uniform over each pair's real columns.
        d_state = np.broadcast_to(
            -np.log(n_len.astype(np.float64))[:, None], (L, n_max + 1)
        ).copy()
        d_state[:, 0] = LOG_ZERO

        jj = np.arange(1, n_max + 1, dtype=np.float64)
        #: Offset that turns the D recurrence into a plain logcumsumexp.
        d_scan_off = jj * log_ge
        for i in range(1, m_max + 1):
            active = (i <= m_len)[:, None]
            base = read_arr[:, i - 1][:, None]
            err = base_error[:, i - 1][:, None]
            match_p = np.where(
                (hap_arr == base) & (base != n_big) & ~hap_is_n,
                1.0 - err,
                err / 3.0,
            )
            log_emit = np.log(match_p)

            # Match: from (i-1, j-1) in M, I or D.
            stay = np.logaddexp(
                m_state[:, :-1] + log_no_gap,
                np.logaddexp(i_state[:, :-1], d_state[:, :-1]) + log_gap_to_match,
            )
            m_new = np.full_like(m_state, LOG_ZERO)
            m_new[:, 1:] = log_emit + stay

            # Insert (read base consumed, haplotype stays): from (i-1, j).
            i_new = np.logaddexp(m_state + log_go, i_state + log_ge)

            # Delete: D[j] = logaddexp(M[j-1] + go, D[j-1] + ge) unrolled to
            # D[j] = go + j*ge + logcumsumexp_k(M[k-1] - k*ge).
            d_new = np.full_like(d_state, LOG_ZERO)
            d_new[:, 1:] = (
                np.logaddexp.accumulate(
                    m_new[:, :-1] + log_go - d_scan_off, axis=1
                )
                + d_scan_off
            )

            # Pairs whose read ended before row i keep their final state.
            m_state = np.where(active, m_new, m_state)
            i_state = np.where(active, i_new, i_state)
            d_state = np.where(active, d_new, d_state)

        # Free right flank: sum over each pair's real end columns of M + I.
        final = np.logaddexp(m_state[:, 1:], i_state[:, 1:])
        col_valid = np.arange(1, n_max + 1)[None, :] <= n_len[:, None]
        final = np.where(col_valid, final, LOG_ZERO)
        out[live] = np.logaddexp.reduce(final, axis=1)
        return out
