"""Distribution statistics that motivate the quality codec (paper Fig. 5).

Figure 5 of the paper plots, for two SRA samples, (a) the raw quality-score
distribution and (b) the adjacent-difference distribution, showing the
latter concentrates near zero.  These helpers compute both histograms from
any collection of quality strings so the figure can be regenerated from
simulated profiles.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.compression.delta import delta_encode


def _percent(arrays: Iterable[np.ndarray]) -> dict[int, float]:
    values = np.concatenate([np.zeros(0, dtype=np.int64), *arrays])
    keys, counts = np.unique(values, return_counts=True)
    return {k: 100.0 * c / values.size for k, c in zip(keys.tolist(), counts.tolist())}


def quality_histogram(qualities: Iterable[str]) -> dict[int, float]:
    """Percent of bases at each raw ASCII quality value."""
    return _percent(np.frombuffer(q.encode("ascii"), dtype=np.uint8) for q in qualities)


def delta_histogram(qualities: Iterable[str]) -> dict[int, float]:
    """Percent of adjacent quality differences at each delta value.

    Only the difference part of the delta stream is counted (the first
    element of each read is the absolute score, not a difference).
    """
    return _percent(delta_encode(q)[1:] for q in qualities)


def concentration(histogram: dict[int, float], radius: int = 10) -> float:
    """Percent of mass within ``radius`` of the histogram's mode.

    The paper's observation is that deltas are "more concentrated and
    easier to predict": this scalar makes the comparison testable.
    """
    if not histogram:
        return 0.0
    mode = max(histogram, key=lambda k: histogram[k])
    return sum(p for v, p in histogram.items() if abs(v - mode) <= radius)


def field_fraction(sequences: Iterable[str], qualities: Iterable[str], names: Iterable[str]) -> float:
    """Fraction of total record bytes taken by sequence+quality fields.

    The paper reports 80-90% for FASTQ records, which justifies compressing
    only those two fields.
    """
    name_list = list(names)
    seq_bytes = sum(len(s) for s in sequences)
    qual_bytes = sum(len(q) for q in qualities)
    name_bytes = sum(len(n) for n in name_list)
    # Four-line FASTQ framing per record:
    # '@' + name + '\n' + seq + '\n' + '+' + '\n' + qual + '\n'  (6 framing bytes)
    overhead = name_bytes + 6 * len(name_list)
    total = seq_bytes + qual_bytes + overhead
    if total == 0:
        return 0.0
    return (seq_bytes + qual_bytes) / total
