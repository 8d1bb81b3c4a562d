"""GPF genomic data compression (paper §4.2).

FASTQ/SAM records spend 80-90% of their bytes on the ``Sequence`` and
``Quality`` fields, so GPF compresses exactly those two fields while leaving
the record structure intact:

- **Sequence**: 2-bit packing of A/C/G/T.  Non-ACGT characters (``N`` etc.)
  use the Deorowicz trick — the base is rewritten to ``A`` and the matching
  quality score is set to 0, which is outside the legal Phred range of real
  reads, so decompression can restore the ``N`` (``repro.compression.twobit``).
- **Quality**: the adjacent-difference (delta) sequence is far more
  concentrated than the raw scores (paper Fig. 5), so qualities are
  delta-transformed and Huffman-coded with an explicit EOF symbol
  (``repro.compression.delta`` + ``repro.compression.huffman``).

``repro.compression.records`` combines both into whole-record batch codecs
used by the engine's ``gpf`` serializer; ``repro.compression.refbased`` is
a CRAM-style reference-based SAM codec (an extension).  Import from the
submodules.
"""
