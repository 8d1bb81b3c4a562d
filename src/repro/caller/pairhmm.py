"""Pair-HMM read-likelihood computation.

P(read | haplotype): the probability that the haplotype, observed through
a sequencer with the read's per-base quality profile, would produce this
read.  Three-state HMM (Match / Insert / Delete) with quality-derived
emission probabilities, computed by the forward algorithm.

This is the WGS pipeline's dominant compute kernel (paper Fig. 13: the
Caller phase is CPU-bound).  :meth:`PairHMM.likelihood_matrices` scores
every (read, haplotype) pair of a caller task's active regions at once:
reads are keyed by (sequence, qualities) and haplotypes by sequence, each
distinct pair is computed once, and the values are scattered back into
one matrix per region.

The forward runs in **linear space** (GATK's logless pair-HMM) over all
pairs together and iterates over haplotype columns.  Column j of M and D
depends only on column j-1, so each is one array operation over read rows
x pairs, with the column's emissions built from the packed base codes.
I's same-column recurrence ``I[i] = ge*I[i-1] + go*M[i-1]`` is a geometric
prefix sum over the rows, in blocks of ``row_block`` rows with an exact
carry between blocks.  Every :data:`RESCALE_COLS` columns each block of
rows of each pair is rescaled by an exact power of two, from the peak of
its real rows, and the log is taken once, at the end.  Every operation is
per pair, so a pair's value is bit-for-bit the same whatever else shares
its batch and however wide the padding is.  The log-space scalar oracle
lives in the tests (``tests/caller/reference_caller.py``); the kernel
matches it to 1e-12 relative.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

LOG_ZERO = -1e30

#: Haplotype columns between two power-of-two rescales.  One column
#: shrinks a block's peak by at most min(go, ge) (~2^-15 at the default
#: penalties) and grows it by at most 3, so the values stay far inside
#: float64's normal range between rescales.
RESCALE_COLS = 8
#: Fewest read rows per block of I's prefix sum: the gap-extend penalty
#: must keep its weights ge^-u, u < MIN_ROW_BLOCK, below 2^512.
MIN_ROW_BLOCK = 32
#: Most read rows per block: a 100-base read is one block.
MAX_ROW_BLOCK = 128
#: Pairs x padded read rows one forward recursion holds; larger batches
#: run in chunks of pairs sorted by haplotype length.
MAX_CHUNK_CELLS = 1 << 18

#: Read and haplotype bytes for N and padding: they match nothing.
_READ_NOMATCH = 0xFE
_HAP_NOMATCH = 0xFF
#: Emission error rate of read rows past a pair's last base (their values
#: are never read; 0.75 keeps them from decaying between rescales).
_PAD_ERROR = 0.75
_LN2 = math.log(2.0)


def _pack(texts: Sequence[str], nomatch: int) -> tuple[np.ndarray, np.ndarray]:
    """``texts`` as rows of a ``(len, longest)`` byte array, N and padding
    as ``nomatch``, and their lengths."""
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    out = np.full((len(texts), int(lengths.max(initial=0))), nomatch, dtype=np.uint8)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.frombuffer(
        "".join(texts).encode("ascii"), dtype=np.uint8
    )
    out[out == ord("N")] = nomatch
    return out, lengths


class PairHMM:
    """Forward algorithm over (read x haplotype)."""

    def __init__(self, gap_open_phred: float = 45.0, gap_extend_phred: float = 10.0):
        self.gap_open = 10.0 ** (-gap_open_phred / 10.0)
        self.gap_extend = 10.0 ** (-gap_extend_phred / 10.0)
        if not (gap_open_phred > 10.0 * math.log10(2.0) and gap_extend_phred > 0.0):
            raise ValueError("gap penalties must leave 1 - 2*gap_open and 1 - gap_extend positive")
        if (
            min(self.gap_open, self.gap_extend) ** RESCALE_COLS < 2.0**-512
            or self.gap_extend ** (MIN_ROW_BLOCK - 1) < 2.0**-512
        ):
            raise ValueError("gap penalties too large for the batched kernel's scaling")
        #: Read rows per block of I's prefix sum (its weights stay below 2^512).
        self.row_block = min(MAX_ROW_BLOCK, 1 + int(512 / -math.log2(self.gap_extend)))

    def likelihood_matrices(
        self, problems: Sequence[tuple[Sequence[tuple[str, Sequence[int]]], Sequence[str]]]
    ) -> list[np.ndarray]:
        """One (num_reads x num_haplotypes) log-likelihood matrix per
        ``(reads, haplotypes)`` problem, from ONE batched forward over the
        distinct (read, haplotype) pairs of all problems."""
        # Qualities key by their bytes as given: the caller passes slices of
        # one uint8 buffer, so equal reads share a key.
        read_ids: dict[tuple[str, bytes], int] = {}
        reads: list[tuple[str, np.ndarray]] = []
        hap_ids: dict[str, int] = {}
        keys = []
        for problem_reads, haplotypes in problems:
            rows = []
            for seq, quals in problem_reads:
                q = np.asarray(quals)
                key = (seq, q.tobytes())
                rid = read_ids.get(key)
                if rid is None:
                    rid = read_ids[key] = len(reads)
                    reads.append((seq, q))
                rows.append(rid)
            cols = [hap_ids.setdefault(hap, len(hap_ids)) for hap in haplotypes]
            keys.append((np.array(rows, dtype=np.int64)[:, None], np.array(cols, dtype=np.int64)))
        # Pair key read * H + haplotype: computed once, scattered to every cell.
        width = max(len(hap_ids), 1)
        flat = [(r * width + c).ravel() for r, c in keys]
        unique, inverse = np.unique(np.concatenate([np.empty(0, np.int64), *flat]), return_inverse=True)
        values = self._scores(reads, list(hap_ids), unique // width, unique % width)[inverse]
        outs = []
        start = 0
        for (rows, cols), cells in zip(keys, flat):
            outs.append(values[start : start + len(cells)].reshape(len(rows), len(cols)))
            start += len(cells)
        return outs

    def likelihood_matrix(
        self, reads: Sequence[tuple[str, Sequence[int]]], haplotypes: Sequence[str]
    ) -> np.ndarray:
        """(num_reads x num_haplotypes) log-likelihood matrix: one problem
        of :meth:`likelihood_matrices`."""
        return self.likelihood_matrices([(reads, haplotypes)])[0]

    def batch_log_likelihoods(
        self, items: Sequence[tuple[str, Sequence[int], str]]
    ) -> np.ndarray:
        """log P(read | haplotype) for a batch of (read, quals, haplotype)
        triples via one linear-space forward over the batch; each value is
        independent, bit for bit, of the rest of the batch."""
        index = np.arange(len(items))
        return self._scores(
            [(seq, np.asarray(quals)) for seq, quals, _ in items],
            [hap for _, _, hap in items],
            index,
            index,
        )

    def _scores(
        self,
        reads: list[tuple[str, np.ndarray]],
        haplotypes: list[str],
        read_of: np.ndarray,
        hap_of: np.ndarray,
    ) -> np.ndarray:
        """log P for the pairs ``(reads[read_of[p]], haplotypes[hap_of[p]])``."""
        out = np.full(len(read_of), LOG_ZERO, dtype=np.float64)
        if not len(read_of):
            return out
        codes, m_len = _pack([seq for seq, _ in reads], _READ_NOMATCH)
        haps, n_len = _pack(haplotypes, _HAP_NOMATCH)
        live = np.flatnonzero((m_len[read_of] > 0) & (n_len[hap_of] > 0))
        q_len = np.fromiter((len(q) for _, q in reads), dtype=np.int64, count=len(reads))
        bad = live[q_len[read_of[live]] != m_len[read_of[live]]]
        if len(bad):
            r = read_of[bad[0]]
            raise ValueError(f"pair {bad[0]}: {q_len[r]} qualities for a {m_len[r]}-base read")
        if not len(live):
            return out
        # Reads in no live pair may carry any number of qualities.
        fits = q_len == m_len
        error = np.full(codes.shape, _PAD_ERROR)
        error[(np.arange(codes.shape[1]) < m_len[:, None]) & fits[:, None]] = 10.0 ** (
            np.concatenate([q for (_, q), ok in zip(reads, fits) if ok]).astype(np.float64) / -10.0
        )
        # Chunks of similar haplotype length, so padding stays narrow.
        live = live[np.argsort(n_len[hap_of[live]], kind="stable")]
        rows = (m_len[read_of[live]] + 1).tolist()
        start = 0
        while start < len(live):
            stop, tallest = start + 1, rows[start]
            while stop < len(live):
                tallest = max(tallest, rows[stop])
                if (stop + 1 - start) * tallest > MAX_CHUNK_CELLS:
                    break
                stop += 1
            chunk = live[start:stop]
            r, h = read_of[chunk], hap_of[chunk]
            m = int(m_len[r].max())
            n = int(n_len[h].max())
            out[chunk] = self._forward(
                codes[r, :m].T, error[r, :m].T, haps[h, :n].T, m_len[r], n_len[h]
            )
            start = stop
        return out

    def _forward(
        self,
        read: np.ndarray,
        error: np.ndarray,
        hap: np.ndarray,
        m_len: np.ndarray,
        n_len: np.ndarray,
    ) -> np.ndarray:
        """The recursion over haplotype columns for one chunk of pairs.

        ``read`` and ``error`` are (read bases x pairs), ``hap`` is
        (haplotype bases x pairs), ``n_len`` is ascending.  Arrays are
        (read rows x pairs): row 0 is the empty read prefix, where only D
        (the free left flank) is non-zero."""
        m_max, pairs = read.shape
        width = hap.shape[0]
        block = self.row_block
        rows = m_max + 1
        if rows <= block:
            block, blocks = rows, 1
        else:
            blocks = -(-rows // block)
            rows = blocks * block
        go, ge = self.gap_open, self.gap_extend
        no_gap = 1.0 - 2.0 * go
        # I and D are held times r = (1 - ge) / no_gap, and the emissions
        # times no_gap, so that M[i][j] = e' (M + I' + D')[i-1][j-1].
        r = (1.0 - ge) / no_gap
        codes = np.full((rows, pairs), _READ_NOMATCH, dtype=np.uint8)
        codes[1 : m_max + 1] = read
        err = np.full((rows, pairs), _PAD_ERROR)
        err[1 : m_max + 1] = error
        match_p = (1.0 - err) * no_gap
        miss_p = err / 3.0 * no_gap
        # I[i] = ge^u (carry + sum_{v<=u} ge^-v r go M[i-v-1]), u = i % block.
        u = (np.arange(rows) % block).astype(np.float64)[:, None]
        in_weight = (r * go * ge**-u)[1:]
        ge_u = ge**u
        real = np.arange(rows)[:, None] <= m_len
        # Column 1: only D's row 0, uniform over each pair's start columns.
        m_state = np.zeros((rows, pairs))
        i_state = np.zeros((rows, pairs))
        d_state = np.zeros((rows, pairs))
        d_state[0] = r / n_len
        s_state = np.empty((rows, pairs))
        opened = np.empty((rows - 1, pairs))
        # Block k starts scaled for I's decay from row 0 (ge per row), so the
        # first flow into it is in range; a block stays so until it has a peak.
        decay = math.floor(block * math.log2(ge))
        scale_exp = np.repeat(np.arange(blocks) * decay, pairs).reshape(blocks, pairs)
        #: 2^(exp[k-1] - exp[k]): a value of block k-1 in block k's scale.
        cross = np.ldexp(1.0, np.full((blocks, pairs), -decay))
        last = m_len * pairs + np.arange(pairs)
        last_block = (m_len // block) * pairs + np.arange(pairs)
        first_live = np.searchsorted(n_len, np.arange(width + 1))
        acc_m = np.zeros(pairs)
        acc_i = np.zeros(pairs)
        boundaries = range(block, rows, block)

        for j in range(2, width + 1):
            np.add(m_state, i_state, out=s_state)
            s_state += d_state
            if j % RESCALE_COLS == 1:
                # Multiplying by 2^-e is exact: the mantissas do not move.
                peak = np.where(real, s_state, 0.0).reshape(blocks, block, pairs).max(axis=1)
                _, exp = np.frexp(peak)
                factor = np.ldexp(1.0, -exp)
                for state in (m_state, i_state, d_state, s_state):
                    state.reshape(blocks, block, pairs)[...] *= factor[:, None, :]
                scale_exp += exp
                acc_m *= factor.ravel()[last_block]
                acc_i *= factor.ravel()[last_block]
                cross[1:] = np.ldexp(1.0, scale_exp[:-1] - scale_exp[1:])
            # Delete (haplotype base consumed): from column j-1, same row.
            np.multiply(m_state[1:], r * go, out=opened)
            d_state[1:] *= ge
            d_state[1:] += opened
            # Match: from column j-1, row i-1.
            emit = np.where(codes[1:] == hap[j - 1], match_p[1:], miss_p[1:])
            np.multiply(s_state[:-1], emit, out=m_state[1:])
            for k, row in enumerate(boundaries, 1):
                m_state[row] *= cross[k]
            # Insert (read base consumed): from column j, row i-1.
            np.multiply(m_state[:-1], in_weight, out=i_state[1:])
            for k, row in enumerate(boundaries, 1):
                i_state[row] *= cross[k]
            scan = i_state.reshape(blocks, block, pairs)
            np.cumsum(scan, axis=1, out=scan)
            for k in range(1, blocks):
                scan[k] += (ge**block * cross[k]) * scan[k - 1, -1]
            i_state *= ge_u
            # Free right flank: add each pair's last read row, while the
            # column is one of its haplotype's.
            live = first_live[j]
            acc_m[live:] += np.take(m_state, last[live:])
            acc_i[live:] += np.take(i_state, last[live:])

        total = acc_m + acc_i / r
        mantissa, exp = np.frexp(total)
        exp += scale_exp.ravel()[last_block]
        return np.array(
            [
                math.log(f) + e * _LN2 if f else LOG_ZERO
                for f, e in zip(mantissa.tolist(), exp.tolist())
            ]
        )
