"""The Caller stage: a HaplotypeCaller re-implementation.

The paper's Caller wraps GATK HaplotypeCaller, "calling variants via
local de-novo assembly of haplotypes in an active region based on
paired-HMM algorithm" (Table 2).  The same four phases here:

- ``active_region``     — pile-up scan for windows with mismatch/indel
  evidence ("active regions"), as bincounts over the task's CIGARs;
- ``debruijn``          — per-region de Bruijn graph assembly of candidate
  haplotypes from the spanning reads plus the reference, on k-mer arrays;
- ``pairhmm``           — pair-HMM read-vs-haplotype likelihoods: one
  linear-space forward over haplotype columns, exactly rescaled by powers
  of two, over the distinct pairs of a call's regions (the pipeline's
  dominant compute kernel, per the paper's Fig. 13 CPU analysis);
- ``genotyper``         — diploid genotype likelihoods over haplotype
  pairs, emitting VCF (or GVCF) records.

``haplotype_caller`` glues the phases into the per-partition callable the
GPF HaplotypeCallerProcess runs: it assembles every active region, scores
them all in one pair-HMM batch, then genotypes each region.
"""

from repro.caller.active_region import ActiveRegion, find_active_regions
from repro.caller.debruijn import DeBruijnAssembler, Haplotype
from repro.caller.pairhmm import PairHMM
from repro.caller.genotyper import Genotyper, GenotypeCall
from repro.caller.haplotype_caller import HaplotypeCaller, CallerConfig
from repro.caller.filters import (
    FilterConfig,
    apply_hard_filters,
    passing,
    filter_summary,
)

__all__ = [
    "ActiveRegion",
    "find_active_regions",
    "DeBruijnAssembler",
    "Haplotype",
    "PairHMM",
    "Genotyper",
    "GenotypeCall",
    "HaplotypeCaller",
    "CallerConfig",
    "FilterConfig",
    "apply_hard_filters",
    "passing",
    "filter_summary",
]
