"""Base Quality Score Recalibration (GATK BQSR).

Sequencers' reported quality scores are systematically miscalibrated.
BQSR counts, per covariate bin, how often aligned bases actually mismatch
the reference — skipping known polymorphic sites (dbSNP), where a
mismatch is real variation rather than machine error — and replaces each
reported quality with the empirical quality of its bin.

Covariates (the standard GATK set):

- reported quality score,
- machine cycle (position in the read, counted from the 3' end for the
  reverse strand),
- dinucleotide context (previous base + current base).

The two-pass structure (count covariates -> apply) matches the pipeline
stage layout; the count pass is the "Collect action after BQSR" the paper
calls out as a serial broadcast step (§5.2.2).

Both passes work on flat per-partition arrays, one entry per base: the
count pass fills each covariate table with one ``np.bincount``, and the
apply pass evaluates each term of the delta model once per table bin,
then sums the terms per base in the scalar model's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.formats.cigar import CONSUMES_QUERY, CONSUMES_REF
from repro.formats.fasta import Bases
from repro.formats.sam import SamRecord, with_qual
from repro.formats.vcf import VcfRecord, known_sites_mask

#: Phred cap after recalibration, matching GATK's practical range.
MAX_RECALIBRATED = 60

#: CIGAR ops whose bases are compared with the reference.
_ALIGNED_OPS = frozenset("M=X")

_N = ord("N")

_COUNTS = ("quality_counts", "cycle_counts", "context_counts")


def _phred(errors: float, observations: float) -> float:
    """Empirical Phred score with the Bayesian +1/+2 smoothing GATK uses."""
    rate = (errors + 1.0) / (observations + 2.0)
    return float(-10.0 * np.log10(rate))


def _delta(errors: int, observations: int, q_raw: float) -> float:
    """A conditional bin's shift from its quality's raw error rate."""
    raw_rate = errors / observations
    return -10.0 * np.log10(raw_rate) - (-10.0 * np.log10(q_raw))


def _empty(*shape: int) -> np.ndarray:
    return np.zeros(shape, dtype=np.int64)


@dataclass(eq=False)
class RecalibrationTable:
    """Counts of observations and errors per covariate bin, as dense arrays.

    Each covariate axis holds only the keys seen: sorted distinct
    reported qualities (Phred), cycles, and dinucleotide contexts coded
    ``previous SEQ byte << 8 | current SEQ byte`` (so lowercase and IUPAC
    bases keep bins of their own).  The count arrays are
    ``[observations, errors]`` stacked on the first axis and indexed by
    quality, then cycle or context.
    """

    qualities: np.ndarray = field(default_factory=lambda: _empty(0))
    cycles: np.ndarray = field(default_factory=lambda: _empty(0))
    contexts: np.ndarray = field(default_factory=lambda: _empty(0))
    #: shape (2, qualities)
    quality_counts: np.ndarray = field(default_factory=lambda: _empty(2, 0))
    #: shape (2, qualities, cycles)
    cycle_counts: np.ndarray = field(default_factory=lambda: _empty(2, 0, 0))
    #: shape (2, qualities, contexts)
    context_counts: np.ndarray = field(default_factory=lambda: _empty(2, 0, 0))

    @property
    def total_observations(self) -> int:
        return int(self.quality_counts[0].sum())

    @property
    def total_errors(self) -> int:
        return int(self.quality_counts[1].sum())

    # -- dict views of the bins that have observations --------------------
    @property
    def by_quality(self) -> dict[int, list[int]]:
        return _cells(self.quality_counts, self.qualities.tolist())

    @property
    def by_cycle(self) -> dict[tuple[int, int], list[int]]:
        return _cells(self.cycle_counts, self.qualities.tolist(), self.cycles.tolist())

    @property
    def by_context(self) -> dict[tuple[int, str], list[int]]:
        names = [chr(code >> 8) + chr(code & 0xFF) for code in self.contexts.tolist()]
        return _cells(self.context_counts, self.qualities.tolist(), names)

    def merge(self, other: "RecalibrationTable") -> "RecalibrationTable":
        """Combine two partial tables (the per-partition reduce step)."""
        axes = (
            np.union1d(self.qualities, other.qualities),
            np.union1d(self.cycles, other.cycles),
            np.union1d(self.contexts, other.contexts),
        )
        mine, theirs = self._widened(*axes), other._widened(*axes)
        self.qualities, self.cycles, self.contexts = axes
        self.quality_counts, self.cycle_counts, self.context_counts = (
            a + b for a, b in zip(mine, theirs)
        )
        return self

    def _widened(
        self, qualities: np.ndarray, cycles: np.ndarray, contexts: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """This table's counts placed on axes that contain its own."""
        q = np.searchsorted(qualities, self.qualities)
        by_quality = _empty(2, len(qualities))
        by_quality[:, q] = self.quality_counts
        by_cycle = _empty(2, len(qualities), len(cycles))
        by_cycle[:, q[:, None], np.searchsorted(cycles, self.cycles)] = self.cycle_counts
        by_context = _empty(2, len(qualities), len(contexts))
        by_context[:, q[:, None], np.searchsorted(contexts, self.contexts)] = self.context_counts
        return by_quality, by_cycle, by_context

    # The merged table rides in every apply task's frame: counts pickle at
    # the narrowest integer type that holds them.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in _COUNTS:
            counts = state[name]
            state[name] = counts.astype(np.min_scalar_type(counts.max(initial=0)))
        return state

    def __setstate__(self, state: dict) -> None:
        for name in _COUNTS:
            state[name] = state[name].astype(np.int64)
        self.__dict__.update(state)

    # -- recalibration ---------------------------------------------------
    def recalibrate(self, quality: int, cycle: int, context: str) -> int:
        """GATK's hierarchical delta model for one base.

        new Q = global empirical
              + delta(reported quality)
              + delta(cycle | quality)
              + delta(context | quality)
        """
        code = ord(context[0]) << 8 | ord(context[1])
        return int(
            self.recalibrated(np.array([quality]), np.array([cycle]), np.array([code]))[0]
        )

    def recalibrated(
        self, qualities: np.ndarray, cycles: np.ndarray, contexts: np.ndarray
    ) -> np.ndarray:
        """``recalibrate`` for arrays of bases.

        Each term is computed once per bin with scalar code, then summed
        per base in the model's order; a term that does not fire adds an
        exact 0.0, and ``np.rint`` rounds half to even like ``round``, so
        the result equals the per-base evaluation bit for bit.  A quality
        with no observations is returned unchanged.
        """
        obs, err = self.quality_counts.tolist()
        q_raw = [e / o if o else 0.0 for o, e in zip(obs, err)]
        q_emp = np.array([_phred(e, o) for o, e in zip(obs, err)] + [0.0])
        qi = _find(self.qualities, qualities)
        value = (
            q_emp[qi]
            + _deltas(self.cycle_counts, q_raw)[qi, _find(self.cycles, cycles)]
            + _deltas(self.context_counts, q_raw)[qi, _find(self.contexts, contexts)]
        )
        # Conditional covariates only fire when the bin has seen real
        # errors (see _deltas), so `value` is finite.
        new = np.clip(np.rint(value), 1, MAX_RECALIBRATED).astype(np.int64)
        return np.where(np.append(obs, 0)[qi] > 0, new, qualities)


def _axis(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct non-negative ``values`` and each value's index among them."""
    seen = np.bincount(values) > 0
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[values]


def _count(index: np.ndarray, errors: np.ndarray, *shape: int) -> np.ndarray:
    """``[observations, errors]`` per bin: one bincount over (bin, is_error)."""
    size = int(np.prod(shape))
    split = np.bincount(index * 2 + errors, minlength=2 * size).reshape(size, 2)
    return np.stack([split.sum(axis=1), split[:, 1]]).reshape((2, *shape))


def _find(axis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each value's index on the sorted ``axis``; ``len(axis)`` where absent."""
    index = np.searchsorted(axis, values)
    hit = index < len(axis)
    hit[hit] = axis[index[hit]] == values[hit]
    return np.where(hit, index, len(axis))


def _deltas(counts: np.ndarray, q_raw: list[float]) -> np.ndarray:
    """Each (quality, covariate) bin's delta, 0.0 where it does not fire.

    The extra last row and column are the absent quality and key.
    Conditional covariates use raw rates and only fire when the bin has
    seen real errors: with few observations the smoothing prior would
    dominate and fabricate large negative deltas.
    """
    obs, err = counts
    out = np.zeros((obs.shape[0] + 1, obs.shape[1] + 1))
    fires = (obs >= 100) & (err >= 2) & (np.array(q_raw) > 0)[:, None]
    rows, cols = np.nonzero(fires)
    for i, j, o, e in zip(rows.tolist(), cols.tolist(), obs[fires].tolist(), err[fires].tolist()):
        out[i, j] = _delta(e, o, q_raw[i])
    return out


def _cells(counts: np.ndarray, *axes: list) -> dict:
    """``{key: [observations, errors]}`` for every bin with observations."""
    where = np.nonzero(counts[0])
    keys = list(zip(*([axis[i] for i in index.tolist()] for axis, index in zip(axes, where))))
    if len(axes) == 1:
        keys = [key for (key,) in keys]
    cells = zip(counts[0][where].tolist(), counts[1][where].tolist())
    return {key: list(cell) for key, cell in zip(keys, cells)}


def _bytes(texts: Iterable[str]) -> np.ndarray:
    return np.frombuffer("".join(texts).encode("latin-1"), dtype=np.uint8)


def _covariates(reads: list[SamRecord]) -> tuple[np.ndarray, ...]:
    """Every base of ``reads``, back to back: SEQ and QUAL bytes, cycle and
    context; and each read's first base."""
    lengths = np.array([len(rec.seq) for rec in reads], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    read = np.repeat(np.arange(len(reads)), lengths)
    query = np.arange(len(read)) - starts[read]
    reverse = np.array([rec.is_reverse for rec in reads], dtype=bool)[read]
    seq = _bytes(rec.seq for rec in reads)
    cycle = np.where(reverse, lengths[read] - 1 - query, query)
    context = np.where(query > 0, np.roll(seq, 1), _N).astype(np.int64) << 8 | seq
    return seq, _bytes(rec.qual for rec in reads), cycle, context, starts


def build_recalibration_table(
    records: list[SamRecord],
    reference: Bases,
    known_sites: list[VcfRecord],
) -> RecalibrationTable:
    """Pass 1: count covariates over aligned, non-duplicate records."""
    reads = with_qual(rec for rec in records if not (rec.is_unmapped or rec.is_duplicate))
    seq, qual, cycle, context, starts = _covariates(reads)
    # Per contig, one row per M/=/X op: (first base in the batch, first
    # reference position, length).
    segments: dict[str, list[tuple[int, int, int]]] = {}
    for rec, start in zip(reads, starts.tolist()):
        rows = segments.setdefault(rec.rname, [])
        query, ref = 0, rec.pos
        for op in rec.cigar:
            if op.op in _ALIGNED_OPS:
                if query + op.length > len(rec.seq):
                    raise ValueError(f"read {rec.qname!r}: CIGAR {rec.cigar} runs past SEQ")
                rows.append((start + query, ref, op.length))
            if op.op in CONSUMES_QUERY:
                query += op.length
            if op.op in CONSUMES_REF:
                ref += op.length

    # The reference window each contig's bases fall in; bases before the
    # contig start or past its end are not counted.
    arrays, spans, windows = {}, {}, {}
    for name, rows in segments.items():
        if rows:
            array = arrays[name] = np.array(rows, dtype=np.int64)
            first, end = int(array[:, 1].min()), int((array[:, 1] + array[:, 2]).max())
            windows[name] = reference.fetch(name, first, end).encode("ascii")
            spans[name] = (max(first, 0), max(first, 0) + len(windows[name]))
    masks = known_sites_mask(known_sites, spans)

    bases, errors = [_empty(0)], [np.zeros(0, dtype=bool)]
    for name, rows in arrays.items():
        lo, hi = spans[name]
        seg = np.repeat(np.arange(len(rows)), rows[:, 2])
        within = np.arange(len(seg)) - (np.cumsum(rows[:, 2]) - rows[:, 2])[seg]
        base, ref = rows[seg, 0] + within, rows[seg, 1] + within
        inside = (ref >= lo) & (ref < hi)
        base, ref = base[inside], ref[inside]
        ref_base = np.frombuffer(windows[name], dtype=np.uint8)[ref - lo]
        counted = ~masks[name][ref - lo] & (ref_base != _N) & (seq[base] != _N)
        bases.append(base[counted])
        errors.append(seq[base[counted]] != ref_base[counted])
    base = np.concatenate(bases)
    quality_axis, qi = _axis(qual[base])
    cycle_axis, ci = _axis(cycle[base])
    context_axis, xi = _axis(context[base])
    is_error = np.concatenate(errors).astype(np.int64)
    nq, nc, nx = len(quality_axis), len(cycle_axis), len(context_axis)
    return RecalibrationTable(
        quality_axis - 33,
        cycle_axis,
        context_axis,
        _count(qi, is_error, nq),
        _count(qi * nc + ci, is_error, nq, nc),
        _count(qi * nx + xi, is_error, nq, nx),
    )


def apply_recalibration(
    records: list[SamRecord], table: RecalibrationTable
) -> int:
    """Pass 2: rewrite quality strings in place; returns bases changed."""
    reads = with_qual(rec for rec in records if not rec.is_unmapped)
    _, qual, cycle, context, starts = _covariates(reads)
    quality = qual.astype(np.int64) - 33
    new = table.recalibrated(quality, cycle, context)
    text = (new + 33).astype(np.uint8).tobytes().decode("latin-1")
    for rec, start in zip(reads, starts.tolist()):
        rec.qual = text[start : start + len(rec.qual)]
    return int(np.count_nonzero(new != quality))


def quality_calibration_error(
    records: list[SamRecord],
    reference: Bases,
    known_sites: list[VcfRecord],
) -> float:
    """RMS difference between reported and empirical quality per bin.

    The benchmark's figure of merit: after BQSR this should shrink.
    """
    table = build_recalibration_table(records, reference, known_sites)
    total_weight = 0
    acc = 0.0
    for quality, obs, err in zip(table.qualities.tolist(), *table.quality_counts.tolist()):
        if obs < 20:
            continue
        emp = _phred(err, obs)
        acc += obs * (emp - quality) ** 2
        total_weight += obs
    return float(np.sqrt(acc / total_weight)) if total_weight else 0.0
