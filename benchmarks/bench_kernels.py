"""Microbenchmarks of the pipeline's hot kernels.

Not a paper table — these are the pytest-benchmark timings a performance
engineer would track: pair-HMM (the caller's dominant kernel per
Fig. 13), banded Smith-Waterman, batched FM-index backward search, the
2-bit packer, and the Huffman quality codec.  The ``*_batch`` cases pit the
batched kernels against the scalar reference paths (the pair-HMM's from
``tests/caller/reference_caller.py``) on a realistic active
region (32 reads x 8 haplotypes) and a chain batch.

Run directly (``python benchmarks/bench_kernels.py``) to time the batched
vs scalar kernels without pytest and write the before/after artifact
``BENCH_kernels.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pytest

from repro.align.fmindex import FMIndex
from repro.align.seeds import extend_anchors_batch
from repro.align.smith_waterman import smith_waterman
from repro.align.sw_batch import smith_waterman_batch
from repro.caller.pairhmm import PairHMM
from repro.compression.huffman import HuffmanCodec
from repro.compression.records import FastqCodec
from repro.compression.twobit import pack_bases, unpack_bases
from repro.formats.fastq import FastqRecord
from repro.sim import generate_reference
from repro.sim.qualities import ILLUMINA_HISEQ

try:
    from tests.caller.reference_caller import likelihood_matrix_scalar, log_likelihood
except ImportError:  # run as a script: the repository root is not on sys.path
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from tests.caller.reference_caller import likelihood_matrix_scalar, log_likelihood


def _region_workload(num_reads=32, num_haps=8, read_len=100, hap_len=200, seed=9):
    """A synthetic active region: reads drawn from the haplotypes."""
    rng = np.random.default_rng(seed)
    haps = [
        "".join(rng.choice(list("ACGT"), size=hap_len)) for _ in range(num_haps)
    ]
    reads = []
    for i in range(num_reads):
        hap = haps[i % num_haps]
        start = int(rng.integers(0, hap_len - read_len))
        seq = list(hap[start : start + read_len])
        for pos in rng.integers(0, read_len, size=2):  # sprinkle errors
            seq[pos] = "ACGT"[int(rng.integers(4))]
        reads.append(("".join(seq), rng.integers(20, 41, size=read_len).tolist()))
    return reads, haps


def _sw_workload(num_pairs=32, query_len=100, window_len=200, seed=10):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(num_pairs):
        window = "".join(rng.choice(list("ACGT"), size=window_len))
        start = int(rng.integers(0, window_len - query_len))
        query = list(window[start : start + query_len])
        for pos in rng.integers(0, query_len, size=2):
            query[pos] = "ACGT"[int(rng.integers(4))]
        pairs.append(("".join(query), window))
    return pairs


@pytest.fixture(scope="module")
def kernel_ref():
    return generate_reference([30_000], seed=77)


def test_kernel_fmindex_build(benchmark, kernel_ref):
    benchmark(lambda: FMIndex(kernel_ref))


def test_kernel_backward_search(benchmark, kernel_ref):
    index = FMIndex(kernel_ref)
    patterns = [
        kernel_ref.contigs[0].fetch(i * 113, i * 113 + 25) for i in range(50)
    ]
    # One anchor per pattern (its end): each lane is the pattern's whole
    # backward search, all 50 run in lockstep.
    benchmark(lambda: extend_anchors_batch(index, patterns, min_seed_length=25))


def test_kernel_smith_waterman(benchmark, kernel_ref):
    query = kernel_ref.contigs[0].fetch(1_000, 1_100)
    window = kernel_ref.contigs[0].fetch(960, 1_160)
    benchmark(lambda: smith_waterman(query, window, band=40))


def test_kernel_pairhmm(benchmark, kernel_ref):
    hmm = PairHMM()
    hap = kernel_ref.contigs[0].fetch(2_000, 2_200)
    read = kernel_ref.contigs[0].fetch(2_040, 2_140)
    quals = [35] * len(read)
    benchmark(lambda: log_likelihood(hmm, read, quals, hap))


def test_kernel_twobit_pack(benchmark):
    rng = np.random.default_rng(0)
    seq = "".join(rng.choice(list("ACGT"), size=10_000))
    benchmark(lambda: unpack_bases(pack_bases(seq), len(seq)))


def test_kernel_huffman_roundtrip(benchmark):
    rng = np.random.default_rng(1)
    quals = [ILLUMINA_HISEQ.sample(100, rng) for _ in range(50)]
    from repro.compression.delta import delta_encode

    freqs: dict[int, int] = {}
    deltas = [delta_encode(q) for q in quals]
    for arr in deltas:
        values, counts = np.unique(arr, return_counts=True)
        for v, c in zip(values.tolist(), counts.tolist()):
            freqs[int(v)] = freqs.get(int(v), 0) + int(c)
    codec = HuffmanCodec.from_frequencies(freqs)

    def roundtrip():
        for arr in deltas:
            codec.decode(codec.encode(arr))

    benchmark(roundtrip)


def test_kernel_fastq_codec(benchmark):
    rng = np.random.default_rng(2)
    reads = [
        FastqRecord(
            f"r{i}",
            "".join(rng.choice(list("ACGT"), size=100)),
            ILLUMINA_HISEQ.sample(100, rng),
        )
        for i in range(200)
    ]
    benchmark(lambda: FastqCodec.decode(FastqCodec.encode(reads)))


def test_kernel_pairhmm_matrix_scalar(benchmark):
    reads, haps = _region_workload(num_reads=8, num_haps=4)
    hmm = PairHMM()
    benchmark(lambda: likelihood_matrix_scalar(hmm, reads, haps))


def test_kernel_pairhmm_matrix_batched(benchmark):
    reads, haps = _region_workload(num_reads=8, num_haps=4)
    hmm = PairHMM()
    benchmark(lambda: hmm.likelihood_matrix(reads, haps))


def test_kernel_smith_waterman_batched(benchmark):
    pairs = _sw_workload(num_pairs=16)
    benchmark(lambda: smith_waterman_batch(pairs, band=40))


def test_kernel_smith_waterman_scalar_loop(benchmark):
    pairs = _sw_workload(num_pairs=16)
    benchmark(lambda: [smith_waterman(q, r, band=40) for q, r in pairs])


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    """Standalone before/after timing of the batched kernels.

    Writes BENCH_kernels.json next to the repo root: the scalar (before)
    vs batched (after) wall time of the pair-HMM likelihood matrix on a
    32-reads x 8-haplotypes active region, and of banded Smith-Waterman
    over a 32-pair chain batch.
    """
    reads, haps = _region_workload(num_reads=32, num_haps=8)
    hmm = PairHMM()
    scalar_hmm = _time(lambda: likelihood_matrix_scalar(hmm, reads, haps))
    batched_hmm = _time(lambda: hmm.likelihood_matrix(reads, haps))
    scalar_mat = likelihood_matrix_scalar(hmm, reads, haps)
    batched_mat = hmm.likelihood_matrix(reads, haps)
    max_abs_diff = float(np.abs(scalar_mat - batched_mat).max())

    pairs = _sw_workload(num_pairs=32)
    scalar_sw = _time(lambda: [smith_waterman(q, r, band=40) for q, r in pairs])
    batched_sw = _time(lambda: smith_waterman_batch(pairs, band=40))
    sw_identical = smith_waterman_batch(pairs, band=40) == [
        smith_waterman(q, r, band=40) for q, r in pairs
    ]

    report = {
        "pairhmm_likelihood_matrix": {
            "workload": "32 reads x 8 haplotypes, 100bp reads / 200bp haplotypes",
            "scalar_seconds": scalar_hmm,
            "batched_seconds": batched_hmm,
            "speedup": scalar_hmm / batched_hmm,
            "max_abs_diff": max_abs_diff,
            "note": "batched kernel is linear-space with power-of-two rescaling; "
            "max_abs_diff is its rounding against the log-space scalar oracle "
            "(~1e-13 on log-likelihoods of -6 to -232; tests bound it at 1e-12 relative)",
        },
        "smith_waterman": {
            "workload": "32 pairs, 100bp query / 200bp window, band=40",
            "scalar_seconds": scalar_sw,
            "batched_seconds": batched_sw,
            "speedup": scalar_sw / batched_sw,
            "results_identical": sw_identical,
        },
    }
    try:
        from benchmarks.bench_history import append_history
    except ImportError:  # run as a script: benchmarks/ itself is on sys.path
        from bench_history import append_history

    out = "BENCH_kernels.json"
    append_history(out, report)
    print(json.dumps(report, indent=2))
    print(f"wrote {out} (history appended)")


if __name__ == "__main__":
    main()
