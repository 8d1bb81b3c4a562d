#!/usr/bin/env python
"""Walk through GPF's genomic compression (paper §4.2, Figs. 4-6).

Shows the paper's own worked example (``GGTTNCCTA`` / ``CCCB#FFFF``),
then measures the codec on realistic simulated reads: sequence packing,
quality delta distribution, Huffman coding, and the full record codec
against the Java/Kryo serializer baselines.

Run:  python examples/compression_study.py
"""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np

from repro.compression.delta import delta_encode
from repro.compression.huffman import HuffmanCodec
from repro.compression.records import FastqCodec
from repro.compression.stats import concentration, delta_histogram, quality_histogram
from repro.compression.twobit import (
    compress_sequence,
    decompress_sequence,
    mask_special_bases,
)
from repro.engine.serializers import CompactSerializer
from repro.formats.fastq import FastqRecord
from repro.sim.qualities import ILLUMINA_HISEQ, ILLUMINA_OLD


def paper_example() -> None:
    print("== The paper's Fig. 4/6 worked example ==")
    seq, qual = "GGTTNCCTA", "CCCB#FFFF"
    masked_seq, masked_qual = mask_special_bases(seq, qual)
    print(f"  sequence          : {seq}")
    print(f"  quality           : {qual}")
    print(f"  masked sequence   : {masked_seq}   (N -> A, quality -> Phred 0)")
    print(f"  masked quality    : {masked_qual!r}")
    blob, carried_qual = compress_sequence(seq, qual)
    print(f"  2-bit packed      : {blob.hex()} ({len(seq)} bases -> {len(blob)} bytes incl. length header)")
    print(f"  round trip        : {decompress_sequence(blob, carried_qual)}")
    deltas = delta_encode(carried_qual)
    print(f"  quality deltas    : {deltas.tolist()}  (paper: 67 0 0 -1 -65 69 0 0 0)")
    codec = HuffmanCodec.from_frequencies(Counter(deltas.tolist()))
    encoded = codec.encode(deltas)
    print(f"  Huffman coded     : {len(carried_qual)} chars -> {len(encoded)} bytes")


def measured_study() -> None:
    print("\n== Measured on 1,000 simulated reads ==")
    rng = np.random.default_rng(3)
    reads = [
        FastqRecord(
            f"r{i}",
            "".join(rng.choice(list("ACGTN"), size=100, p=[0.2425] * 4 + [0.03])),
            ILLUMINA_HISEQ.sample(100, rng),
        )
        for i in range(1_000)
    ]
    raw = sum(len(r.name) + len(r.sequence) + len(r.quality) + 6 for r in reads)
    gpf = len(FastqCodec.encode(reads))
    kryo = len(CompactSerializer().dumps(reads))
    java = len(pickle.dumps(reads, protocol=2))  # Java-serialization stand-in
    print(f"  raw FASTQ text : {raw / 1e3:8.1f} KB")
    print(f"  Java (pickle)  : {java / 1e3:8.1f} KB ({java / raw:.2f}x raw)")
    print(f"  Kryo (compact) : {kryo / 1e3:8.1f} KB ({kryo / raw:.2f}x raw)")
    print(f"  GPF codec      : {gpf / 1e3:8.1f} KB ({gpf / raw:.2f}x raw)")

    print("\n== Why delta coding works (Fig. 5) ==")
    for profile in (ILLUMINA_HISEQ, ILLUMINA_OLD):
        quals = profile.sample_many(300, 100, seed=4)
        raw_c = concentration(quality_histogram(quals), radius=3)
        delta_c = concentration(delta_histogram(quals), radius=3)
        print(
            f"  {profile.name:<16} raw mass near mode: {raw_c:5.1f}%   "
            f"delta mass near mode: {delta_c:5.1f}%"
        )


if __name__ == "__main__":
    paper_example()
    measured_study()
