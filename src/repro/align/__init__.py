"""Read alignment: the Aligner stage substrate.

A from-scratch BWA-MEM-style aligner (the paper's Aligner stage wraps
bwa-0.7.12):

- ``suffix_array`` / ``fmindex`` — Burrows-Wheeler index of the
  reference: a full LF table, so a backward-search step is two gathers,
  and the whole suffix array, so locating a hit is a slice.
- ``seeds`` — super-maximal exact match (SMEM) extraction for a batch of
  reads at once (one lockstep backward search over every anchor).
- ``smith_waterman`` — banded affine-gap local alignment, vectorized
  anti-diagonal dynamic programming.
- ``bwamem`` — seed-chain-extend driver producing SAM records with CIGAR,
  mapping quality and edit distance.
- ``pairing`` — paired-end resolution (proper-pair scoring, mate rescue).
- ``snap`` — a hash-seed aligner in the style of SNAP, used by the Persona
  baseline comparison (Fig. 11d).
"""

from repro.align.fmindex import FMIndex
from repro.align.bwamem import BwaMemAligner, AlignerConfig
from repro.align.pairing import PairedEndAligner
from repro.align.smith_waterman import smith_waterman, AlignmentResult, ScoringScheme
from repro.align.snap import SnapAligner

__all__ = [
    "FMIndex",
    "BwaMemAligner",
    "AlignerConfig",
    "PairedEndAligner",
    "smith_waterman",
    "AlignmentResult",
    "ScoringScheme",
    "SnapAligner",
]
