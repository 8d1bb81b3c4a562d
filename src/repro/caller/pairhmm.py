"""Pair-HMM read-likelihood computation.

P(read | haplotype): the probability that the haplotype, observed through
a sequencer with the read's per-base quality profile, would produce this
read.  Three-state HMM (Match / Insert / Delete) with quality-derived
emission probabilities, computed by the forward algorithm row by row.

This is the WGS pipeline's dominant compute kernel (paper Fig. 13: the
Caller phase is CPU-bound), so it comes in two forms:

- :meth:`PairHMM.log_likelihood` — the scalar reference kernel and test
  oracle: one (read, haplotype) pair in log space, NumPy-vectorized over
  haplotype columns except D's within-row dependency, which runs as a
  per-column Python scan.
- :meth:`PairHMM.batch_log_likelihoods` — the batched kernel behind
  :meth:`PairHMM.likelihood_matrices`: every (read, haplotype) pair is
  padded into dense arrays and ONE forward recursion runs over
  ``pairs x haplotype-columns`` in **linear space** (products and sums,
  GATK's logless pair-HMM).  Each pair is rescaled by an exact power of
  two every :data:`RESCALE_ROWS` rows and the log is taken once, at the
  end.  D's same-row recurrence ``D[j] = go*M[j-1] + ge*D[j-1]`` is a
  geometric prefix sum over fixed :data:`D_BLOCK`-column blocks with an
  exact carry between blocks.  Every operation is per pair and per
  column, so a pair's value is bit-for-bit the same whatever else shares
  its batch and however wide the padding is.

``likelihood_matrices`` computes several (reads x haplotypes) problems —
a caller's active regions — in one batch, and dedups work through a
content-addressed :class:`~repro.caller.likelihood_cache.LikelihoodCache`,
so identical (read, quals, haplotype) triples are computed once.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.caller.likelihood_cache import DEFAULT_MAX_ENTRIES, LikelihoodCache

LOG_ZERO = -1e30

#: Rows between two power-of-two rescales of each pair.  One row shrinks
#: a pair's largest M/I value by at most min(go, ge) (~2^-15 at the
#: default penalties) and grows it by at most 2, so the values stay far
#: inside float64's normal range between rescales.
RESCALE_ROWS = 8
#: Column block of D's geometric prefix sum: the weights ge^-u, u < D_BLOCK,
#: reach 1e31 at the default gap-extend penalty.
D_BLOCK = 32
#: Pairs x padded columns one forward recursion holds; larger batches run
#: in chunks of pairs sorted by haplotype length.
MAX_CHUNK_CELLS = 1 << 18

#: Read and haplotype bytes for N and padding: they match nothing.
_READ_NOMATCH = 0xFE
_HAP_NOMATCH = 0xFF
#: Emission error rate of read rows past a pair's last base (their values
#: are never read; 0.75 keeps them from decaying between rescales).
_PAD_ERROR = 0.75
_LN2 = math.log(2.0)


def _log(x: np.ndarray | float) -> np.ndarray | float:
    return np.log(np.maximum(x, 1e-300))


def _pack(texts: list[str], lengths: np.ndarray, width: int, nomatch: int) -> np.ndarray:
    """``texts`` as rows of a ``(len, width)`` byte array; N and padding
    become ``nomatch``."""
    out = np.full((len(texts), width), nomatch, dtype=np.uint8)
    out[np.arange(width) < lengths[:, None]] = np.frombuffer(
        "".join(texts).encode("ascii"), dtype=np.uint8
    )
    out[out == ord("N")] = nomatch
    return out


class PairHMM:
    """Forward algorithm over (read x haplotype)."""

    def __init__(
        self,
        gap_open_phred: float = 45.0,
        gap_extend_phred: float = 10.0,
        cache: LikelihoodCache | None = None,
        cache_size: int = DEFAULT_MAX_ENTRIES,
    ):
        self.gap_open = 10.0 ** (-gap_open_phred / 10.0)
        self.gap_extend = 10.0 ** (-gap_extend_phred / 10.0)
        if not (gap_open_phred > 10.0 * math.log10(2.0) and gap_extend_phred > 0.0):
            raise ValueError("gap penalties must leave 1 - 2*gap_open and 1 - gap_extend positive")
        if (
            min(self.gap_open, self.gap_extend) ** RESCALE_ROWS < 2.0**-512
            or self.gap_extend ** (D_BLOCK - 1) < 2.0**-512
        ):
            raise ValueError("gap penalties too large for the batched kernel's scaling")
        #: Content-addressed dedup cache consulted by likelihood_matrices;
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

    def likelihood_matrices(
        self, problems: Sequence[tuple[list[tuple[str, list[int]]], list[str]]]
    ) -> list[np.ndarray]:
        """One (num_reads x num_haplotypes) log-likelihood matrix per
        ``(reads, haplotypes)`` problem, from ONE batched forward recursion.

        Identical triples are deduped across all problems of the call and,
        through the content-addressed cache, across calls (overlapping
        regions, duplicate reads, rediscovered haplotypes).
        """
        outs = [np.empty((len(reads), len(haps))) for reads, haps in problems]
        #: key -> the triple to compute (first occurrence).
        pending: dict[bytes, tuple[str, Sequence[int], str]] = {}
        #: key -> matrix cells awaiting that value.
        slots: dict[bytes, list[tuple[np.ndarray, int, int]]] = {}
        for out, (reads, haplotypes) in zip(outs, problems):
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
                    slots.setdefault(key, []).append((out, i, j))
        if pending:
            values = self.batch_log_likelihoods(list(pending.values())).tolist()
            for key, value in zip(pending, values):
                if self.cache is not None:
                    self.cache.put(key, value)
                for out, i, j in slots[key]:
                    out[i, j] = value
        return outs

    def likelihood_matrix(
        self,
        reads: list[tuple[str, list[int]]],
        haplotypes: list[str],
    ) -> np.ndarray:
        """(num_reads x num_haplotypes) log-likelihood matrix: one problem
        of :meth:`likelihood_matrices`."""
        return self.likelihood_matrices([(reads, haplotypes)])[0]

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
        triples via one linear-space forward recursion over the batch.

        Matches :meth:`log_likelihood` to a few 1e-15 relative; each value is
        independent, bit for bit, of the rest of the batch."""
        out = np.full(len(items), LOG_ZERO, dtype=np.float64)
        live = [p for p, (seq, _, hap) in enumerate(items) if seq and hap]
        for p in live:
            seq, quals, _ = items[p]
            if len(quals) != len(seq):
                raise ValueError(
                    f"pair {p}: {len(quals)} qualities for a {len(seq)}-base read"
                )
        # Chunks of similar haplotype length, so padding stays narrow.
        live.sort(key=lambda p: len(items[p][2]))
        chunks: list[list[int]] = [[]]
        for p in live:
            chunk = chunks[-1]
            if chunk and (len(chunk) + 1) * (len(items[p][2]) + 1) > MAX_CHUNK_CELLS:
                chunks.append(chunk := [])
            chunk.append(p)
        for chunk in chunks:
            if chunk:
                out[chunk] = self._forward([items[p] for p in chunk])
        return out

    def _forward(self, items: list[tuple[str, Sequence[int], str]]) -> np.ndarray:
        """The batched recursion over non-empty pairs.

        Arrays are column-major in the pair: row j of a state holds
        haplotype column j of every pair, so the shifted operands of the
        recurrences are contiguous slices."""
        seqs = [seq for seq, _, _ in items]
        haps = [hap for _, _, hap in items]
        pairs = len(items)
        m_len = np.fromiter(map(len, seqs), dtype=np.int64, count=pairs)
        n_len = np.fromiter(map(len, haps), dtype=np.int64, count=pairs)
        m_max = int(m_len.max())
        width = int(n_len.max())

        read = _pack(seqs, m_len, m_max, _READ_NOMATCH).T.copy()
        hap = _pack(haps, n_len, width, _HAP_NOMATCH).T.copy()
        # Each pair's error rates come from its own quals alone.
        error = np.full((pairs, m_max), _PAD_ERROR)
        error[np.arange(m_max) < m_len[:, None]] = np.concatenate(
            [10.0 ** (-np.asarray(q, dtype=np.float64) / 10.0) for _, q, _ in items]
        )
        error = error.T.copy()
        go, ge = self.gap_open, self.gap_extend
        no_gap = 1.0 - 2.0 * go
        # I and D are held times r = (1 - ge) / no_gap, and the emissions
        # times no_gap, so that M[i][j] = e' (M + I' + D')[i-1][j-1].
        r = (1.0 - ge) / no_gap
        match_p = (1.0 - error) * no_gap
        miss_p = error / 3.0 * no_gap
        # Column j (1-based) sits at offset u = (j - 1) % D_BLOCK of its block.
        u = (np.arange(width) % D_BLOCK).astype(np.float64)[:, None]
        d_weight = r * go * ge**-u
        ge_u = ge**u

        # Row 0 is the empty haplotype prefix: M, I and D stay 0 there.
        m_state = np.zeros((width + 1, pairs))
        i_state = np.zeros((width + 1, pairs))
        # Free left flank: D read-row 0 uniform over each pair's start columns.
        d_state = np.zeros((width + 1, pairs))
        d_state[1:] = r / n_len
        stay = np.empty((width, pairs))
        opened = np.empty((width + 1, pairs))
        real = np.arange(1, width + 1)[:, None] <= n_len
        scale_exp = np.zeros(pairs, dtype=np.int64)
        ends = {int(m): np.flatnonzero(m_len == m) for m in np.unique(m_len)}
        out = np.empty(pairs)

        for i in range(m_max):
            emit = np.where(hap == read[i], match_p[i], miss_p[i])
            # Match: from (i-1, j-1) in M, I or D.
            np.add(i_state[:-1], d_state[:-1], out=stay)
            stay += m_state[:-1]
            # Insert (read base consumed, haplotype stays): from (i-1, j).
            i_state *= ge
            np.multiply(m_state, r * go, out=opened)
            i_state += opened
            np.multiply(stay, emit, out=m_state[1:])
            # Delete: over the block of columns s+1.., D[s+1+t] =
            # ge^t (ge D[s] + sum_{u<=t} go M[s+u] ge^-u); blocks start at
            # fixed columns, so a pair's value ignores the padding width.
            np.multiply(m_state[:-1], d_weight, out=d_state[1:])
            for s in range(0, width, D_BLOCK):
                block = d_state[s + 1 : s + 1 + D_BLOCK]
                if s:
                    block[0] += ge * d_state[s]
                np.cumsum(block, axis=0, out=block)
                block *= ge_u[: len(block)]

            row = i + 1
            if row % RESCALE_ROWS == 0:
                # Multiplying by 2^-e is exact: the mantissas do not move.
                peak = np.where(real, m_state[1:] + i_state[1:], 0.0).max(axis=0)
                _, exp = np.frexp(peak)
                factor = np.ldexp(1.0, -exp)
                m_state *= factor
                i_state *= factor
                d_state *= factor
                scale_exp += exp
            done = ends.get(row)
            if done is not None:
                # Free right flank: sum over each pair's real end columns,
                # left to right, then one log per pair.
                total = np.cumsum(m_state[1:, done] + i_state[1:, done] / r, axis=0)[
                    n_len[done] - 1, np.arange(len(done))
                ]
                mantissa, exp = np.frexp(total)
                exp = exp + scale_exp[done]
                out[done] = [
                    math.log(f) + e * _LN2 if f else LOG_ZERO
                    for f, e in zip(mantissa.tolist(), exp.tolist())
                ]
        return out
