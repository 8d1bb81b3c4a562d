"""Active regions, assembly, pair-HMM, genotyper unit tests."""

import numpy as np
import pytest

from repro.caller.active_region import find_active_regions
from repro.caller.debruijn import DeBruijnAssembler, Haplotype
from repro.caller.genotyper import Genotyper, haplotype_variants
from repro.caller.pairhmm import PairHMM
from repro.formats.cigar import Cigar
from repro.formats.fasta import Contig, Reference
from repro.formats.sam import SamRecord


def rec(qname, pos, cigar, seq, rname="chr1", qual=None):
    return SamRecord(
        qname=qname, flag=0, rname=rname, pos=pos, mapq=60,
        cigar=Cigar.parse(cigar), rnext="*", pnext=-1, tlen=0,
        seq=seq, qual=qual or ("I" * len(seq)),
    )


@pytest.fixture(scope="module")
def scene():
    """Reference + reads all carrying one SNP at position 150."""
    rng = np.random.default_rng(31)
    seq = "".join(rng.choice(list("ACGT"), size=500))
    reference = Reference([Contig("chr1", seq.encode())])
    alt = "A" if seq[150] != "A" else "G"
    donor = seq[:150] + alt + seq[151:]
    reads = []
    for i in range(12):
        start = 150 - 10 - 4 * i
        if start < 0:
            continue
        reads.append(rec(f"r{i}", start, "80M", donor[start : start + 80]))
    return reference, reads, 150, seq[150], alt


class TestActiveRegions:
    def test_snp_pileup_triggers_region(self, scene):
        reference, reads, pos, _, _ = scene
        regions = find_active_regions(reads, reference)
        assert len(regions) == 1
        assert regions[0].start <= pos < regions[0].end

    def test_clean_reads_are_quiet(self, scene):
        reference, _, _, _, _ = scene
        seq = reference.contigs[0].sequence.decode()
        clean = [rec(f"c{i}", i * 30, "80M", seq[i * 30 : i * 30 + 80]) for i in range(10)]
        assert find_active_regions(clean, reference) == []

    def test_region_respects_max_span(self, scene):
        reference, _, _, _, _ = scene
        seq = reference.contigs[0].sequence.decode()
        # Mismatches everywhere: regions must be capped, not one giant window.
        noisy = []
        for i in range(10):
            start = i * 40
            bases = list(seq[start : start + 80])
            for j in range(0, 80, 4):
                bases[j] = "ACGT"[("ACGT".index(bases[j]) + 1) % 4]
            noisy.append(rec(f"n{i}", start, "80M", "".join(bases)))
        regions = find_active_regions(noisy, reference, max_region_span=100)
        assert all(r.span <= 100 + 2 * 25 + 1 for r in regions)


class TestAssembly:
    def test_reference_haplotype_always_present(self):
        assembler = DeBruijnAssembler(kmer_sizes=(11,))
        ref_window = "ACGTACGGTTACGTAGCATCGATCGGATCAAGGTCA"
        haps = assembler.assemble(ref_window, [])
        assert any(h.is_reference and h.sequence == ref_window for h in haps)

    def test_snp_haplotype_assembled(self, scene):
        reference, reads, pos, ref_base, alt_base = scene
        window = reference.fetch("chr1", 120, 200)
        assembler = DeBruijnAssembler(kmer_sizes=(15,), min_kmer_support=2)
        haps = assembler.assemble(window, reads)
        alt_window = window[:30] + alt_base + window[31:]
        assert any(h.sequence == alt_window for h in haps)

    def test_low_support_kmers_pruned(self):
        ref_window = "ACGTACGGTTACGTAGCATCGATCGGATCAAGGTCA"
        # One read with one random error: its error k-mers appear once.
        bad = rec("b", 0, "36M", ref_window[:17] + "T" + ref_window[18:])
        assembler = DeBruijnAssembler(kmer_sizes=(11,), min_kmer_support=2)
        haps = assembler.assemble(ref_window, [bad])
        assert all(h.sequence == ref_window for h in haps)

    def test_haplotype_cap(self, scene):
        reference, reads, _, _, _ = scene
        window = reference.fetch("chr1", 120, 200)
        assembler = DeBruijnAssembler(kmer_sizes=(15,), max_haplotypes=2)
        assert len(assembler.assemble(window, reads)) <= 2


def log_likelihood(hmm: PairHMM, read, quals, hap) -> float:
    """One pair through the batched kernel."""
    return float(hmm.batch_log_likelihoods([(read, quals, hap)])[0])


class TestPairHMM:
    def test_perfect_match_beats_mismatch(self):
        hmm = PairHMM()
        hap = "ACGTACGTACGTACGTACGT"
        read = hap[4:16]
        quals = [30] * len(read)
        good = log_likelihood(hmm, read, quals, hap)
        bad_read = read[:5] + "A" + read[6:] if read[5] != "A" else read[:5] + "C" + read[6:]
        bad = log_likelihood(hmm, bad_read, quals, hap)
        assert good > bad

    def test_low_quality_mismatch_penalized_less(self):
        hmm = PairHMM()
        hap = "ACGTACGTACGTACGTACGT"
        read = list(hap[2:18])
        read[8] = "A" if read[8] != "A" else "C"
        read = "".join(read)
        high_q = log_likelihood(hmm, read, [40] * len(read), hap)
        low_q = [40] * len(read)
        low_q[8] = 5
        low = log_likelihood(hmm, read, low_q, hap)
        assert low > high_q

    def test_likelihood_is_probability(self):
        hmm = PairHMM()
        ll = log_likelihood(hmm, "ACGTACGT", [30] * 8, "TTACGTACGTTT")
        assert ll <= 0.0

    def test_indel_read_scores_better_on_indel_haplotype(self):
        hmm = PairHMM()
        ref_hap = "ACGTTGCAAGGCTATCGGATCGGCTA"
        del_hap = ref_hap[:10] + ref_hap[13:]  # 3-base deletion
        read = del_hap[2:22]
        quals = [35] * len(read)
        assert log_likelihood(hmm, read, quals, del_hap) > log_likelihood(hmm, 
            read, quals, ref_hap
        )

    def test_matrix_shape(self):
        hmm = PairHMM()
        reads = [("ACGTACGT", [30] * 8), ("TTTT", [30] * 4)]
        haps = ["ACGTACGTAA", "ACTTACGTAA", "GGGGGGGGGG"]
        matrix = hmm.likelihood_matrix(reads, haps)
        assert matrix.shape == (2, 3)
        assert matrix[0, 0] > matrix[0, 2]

    def test_empty_inputs(self):
        hmm = PairHMM()
        assert log_likelihood(hmm, "", [], "ACGT") < -1e20


class TestGenotyper:
    def _likelihoods(self, pattern):
        """pattern rows: (ref_ll, alt_ll) per read."""
        return np.array(pattern, dtype=float)

    def test_hom_alt_called(self):
        haps = [Haplotype("REF", is_reference=True), Haplotype("ALT")]
        # Every read strongly prefers ALT.
        lls = self._likelihoods([[-40, -5]] * 10)
        call = Genotyper().call(lls, haps)
        assert (call.haplotype1, call.haplotype2) == (1, 1)
        assert call.qual > 20

    def test_het_called(self):
        haps = [Haplotype("REF", is_reference=True), Haplotype("ALT")]
        rows = [[-5, -40], [-40, -5]] * 5
        call = Genotyper().call(self._likelihoods(rows), haps)
        assert {call.haplotype1, call.haplotype2} == {0, 1}

    def test_hom_ref_has_zero_qual(self):
        haps = [Haplotype("REF", is_reference=True), Haplotype("ALT")]
        call = Genotyper().call(self._likelihoods([[-2, -50]] * 8), haps)
        assert (call.haplotype1, call.haplotype2) == (0, 0)
        assert call.qual == 0.0

    def test_ploidy_guard(self):
        with pytest.raises(NotImplementedError):
            Genotyper(ploidy=3)


class TestHaplotypeVariants:
    def test_snv_extracted(self):
        ref = "ACGTACGTAC"
        hap = "ACGTTCGTAC"
        (variant,) = haplotype_variants(hap, ref, "chr1", 100)
        assert variant == ("chr1", 104, "A", "T")

    def test_insertion_extracted(self):
        ref = "ACGTACGTACGT"
        hap = "ACGTACTTTGTACGT"
        variants = haplotype_variants(hap, ref, "c", 0)
        assert any(len(alt) > len(r) for _, _, r, alt in variants)

    def test_deletion_extracted(self):
        ref = "ACGTAGGCATTACCGGA"
        hap = ref[:6] + ref[10:]
        variants = haplotype_variants(hap, ref, "c", 50)
        deletions = [v for v in variants if len(v[2]) > len(v[3])]
        # Repeat-induced alignment ambiguity may split the run, but the
        # total deleted length must be 4 and stay inside the window.
        assert deletions
        assert sum(len(r) - len(alt) for _, _, r, alt in deletions) == 4
        assert all(50 <= pos <= 60 for _, pos, _, _ in deletions)

    def test_identical_sequences_no_variants(self):
        assert haplotype_variants("ACGT", "ACGT", "c", 0) == []
