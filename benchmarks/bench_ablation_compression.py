"""Ablation: which parts of the GPF codec buy the compression.

DESIGN.md calls out two codec design choices: 2-bit sequence packing and
delta+Huffman quality coding.  This bench measures each in isolation on
realistic simulated reads, against the serializer baselines:

    pickle (Java)  |  compact (Kryo)  |  compact+zlib (Spark shuffle
    compression)   |  2-bit only      |  delta+Huffman only  |  full GPF
"""

from __future__ import annotations

import pickle
import zlib

import numpy as np

from benchmarks.conftest import print_table
from repro.compression.delta import delta_encode
from repro.compression.huffman import HuffmanCodec
from repro.compression.records import FastqCodec
from repro.compression.twobit import compress_sequence
from repro.formats.fastq import FastqRecord
from repro.sim.qualities import ILLUMINA_HISEQ


def make_reads(n=600, length=100, seed=9):
    rng = np.random.default_rng(seed)
    reads = []
    for i in range(n):
        seq = "".join(rng.choice(list("ACGT"), size=length))
        reads.append(FastqRecord(f"r{i}", seq, ILLUMINA_HISEQ.sample(length, rng)))
    return reads


def test_ablation_codec_components(benchmark):
    reads = make_reads()
    raw = sum(len(r.name) + len(r.sequence) + len(r.quality) + 6 for r in reads)

    def measure():
        out = {"raw text": raw}
        # Protocol 2 repeats framing per object, as Java serialization
        # repeats class descriptors; the compact (Kryo) serializer is the
        # highest protocol, and Spark's shuffle compression is zlib on top.
        compact = pickle.dumps(reads, protocol=pickle.HIGHEST_PROTOCOL)
        out["pickle (Java)"] = len(pickle.dumps(reads, protocol=2))
        out["compact (Kryo)"] = len(compact)
        out["compact+zlib"] = len(zlib.compress(compact, 6))
        # 2-bit only: pack sequences, leave qualities as raw bytes.
        twobit_only = 0
        for r in reads:
            blob, masked = compress_sequence(r.sequence, r.quality)
            twobit_only += len(blob) + len(masked) + len(r.name) + 6
        out["2-bit only"] = twobit_only
        # delta+Huffman only: qualities coded, sequences raw.
        deltas = [delta_encode(r.quality) for r in reads]
        freqs: dict[int, int] = {}
        for arr in deltas:
            values, counts = np.unique(arr, return_counts=True)
            for v, c in zip(values.tolist(), counts.tolist()):
                freqs[int(v)] = freqs.get(int(v), 0) + int(c)
        codec = HuffmanCodec.from_frequencies(freqs)
        huff_only = sum(
            len(codec.encode(arr)) + len(r.sequence) + len(r.name) + 6
            for arr, r in zip(deltas, reads)
        )
        out["delta+Huffman only"] = huff_only
        out["full GPF codec"] = len(FastqCodec.encode(reads))
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = [
        [name, f"{size / 1e3:.1f} KB", f"{size / raw:.2f}x"]
        for name, size in results.items()
    ]
    print_table(
        "Ablation — codec components on 600 simulated reads",
        ["representation", "size", "vs raw"],
        rows,
    )

    # Each component alone compresses; together they compound.
    assert results["2-bit only"] < raw
    assert results["delta+Huffman only"] < raw
    assert results["full GPF codec"] < results["2-bit only"]
    assert results["full GPF codec"] < results["delta+Huffman only"]
    # The full codec beats the Kryo analogue decisively and is competitive
    # with (or better than) generic zlib while staying record-addressable.
    assert results["full GPF codec"] < 0.8 * results["compact (Kryo)"]
    assert results["full GPF codec"] < 1.3 * results["compact+zlib"]
    # Paper: sequences compress ~4x; full records land around 0.5x raw.
    assert results["full GPF codec"] / raw < 0.65


def test_ablation_reference_based_codec(benchmark, bench_reference, bench_aligned):
    """The CRAM-style extension: on aligned records, storing diffs from
    the reference beats even 2-bit packing (DESIGN.md's codec-evolution
    direction, foreshadowed by the paper's conclusion)."""
    from repro.compression.records import SamCodec
    from repro.compression.refbased import RefBasedSamCodec

    mapped = [r for r in bench_aligned if not r.is_unmapped][:300]
    raw = sum(len(r.to_line()) + 1 for r in mapped)

    def measure():
        return {
            "raw SAM text": raw,
            "GPF codec (2-bit)": len(SamCodec.encode(mapped)),
            "reference-based": len(RefBasedSamCodec(bench_reference).encode(mapped)),
        }

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [name, f"{size / 1e3:.1f} KB", f"{size / raw:.2f}x"]
        for name, size in results.items()
    ]
    print_table(
        "Ablation — reference-based SAM codec on 300 aligned reads",
        ["representation", "size", "vs raw"],
        rows,
    )
    assert results["reference-based"] < results["GPF codec (2-bit)"]
    # Round trip integrity under the winning codec.
    codec = RefBasedSamCodec(bench_reference)
    out = codec.decode(codec.encode(mapped))
    assert [r.seq for r in out] == [r.seq for r in mapped]
