"""Suffix array, BWT, and FM-index tests (cross-checked vs brute force)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align.bwt import bwt, inverse_bwt
from repro.align.fmindex import FMIndex, reverse_complement
from repro.align.suffix_array import build_suffix_array, naive_suffix_array
from repro.formats.fasta import Contig, Reference

dna = st.text(alphabet="ACGT", min_size=1, max_size=200)


class TestSuffixArray:
    def test_matches_naive_on_classic_strings(self):
        for text in [b"banana\x00", b"mississippi\x00", b"AAAA\x00", b"ACGTACGT\x00"]:
            assert build_suffix_array(text).tolist() == naive_suffix_array(text).tolist()

    def test_requires_sentinel(self):
        with pytest.raises(ValueError, match="sentinel"):
            build_suffix_array(b"abc")

    def test_sentinel_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            build_suffix_array(b"a\x00b\x00")

    def test_empty(self):
        assert build_suffix_array(b"").tolist() == []

    @settings(max_examples=40, deadline=None)
    @given(dna)
    def test_matches_naive_property(self, text):
        data = text.encode() + b"\x00"
        assert build_suffix_array(data).tolist() == naive_suffix_array(data).tolist()


class TestBWT:
    @settings(max_examples=40, deadline=None)
    @given(dna)
    def test_inverse_roundtrip(self, text):
        data = text.encode() + b"\x00"
        assert inverse_bwt(bwt(data)) == data

    def test_empty(self):
        assert inverse_bwt(np.array([], dtype=np.uint8)) == b""


def brute_force_occurrences(reference: Reference, pattern: str):
    """All (contig, pos, strand) occurrences, both strands."""
    hits = set()
    for contig in reference.contigs:
        seq = contig.sequence.decode()
        for strand_seq, is_rev in ((seq, False), (reverse_complement(seq), True)):
            start = strand_seq.find(pattern)
            while start != -1:
                if is_rev:
                    fwd = len(seq) - start - len(pattern)
                else:
                    fwd = start
                hits.add((contig.name, fwd, is_rev))
                start = strand_seq.find(pattern, start + 1)
    return hits


@pytest.fixture(scope="module")
def small_ref():
    rng = np.random.default_rng(12)
    seqs = ["".join(rng.choice(list("ACGT"), size=600)) for _ in range(2)]
    return Reference(
        [Contig("c1", seqs[0].encode()), Contig("c2", seqs[1].encode())]
    )


class TestFMIndex:
    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="ACGTN", min_size=1, max_size=120), st.sampled_from([1, 3, 8, 32]))
    def test_occ_checkpoints_match_brute_force(self, seq, sample):
        # The text is both strands plus the sentinel; checkpoint k counts
        # every code in the BWT's first k * sample characters.
        text = seq.encode() + reverse_complement(seq).encode() + b"\x00"
        codes = [FMIndex.ALPHABET.index(byte) for byte in bwt(text).tobytes()]
        index = FMIndex(Reference([Contig("c", seq.encode())]), occ_sample=sample)
        assert index._occ.tolist() == [
            [codes[: k * sample].count(code) for code in range(len(FMIndex.ALPHABET))]
            for k in range(len(text) // sample + 1)
        ]

    def test_count_matches_brute_force(self, small_ref):
        index = FMIndex(small_ref)
        rng = np.random.default_rng(3)
        for _ in range(30):
            contig = small_ref.contigs[int(rng.integers(0, 2))]
            start = int(rng.integers(0, len(contig) - 25))
            pattern = contig.fetch(start, start + 20)
            expected = brute_force_occurrences(small_ref, pattern)
            lo, hi = index.backward_search(pattern)
            assert hi - lo == len(expected)

    def test_locate_positions_match_brute_force(self, small_ref):
        index = FMIndex(small_ref)
        contig = small_ref.contigs[0]
        pattern = contig.fetch(100, 125)
        lo, hi = index.backward_search(pattern)
        located = set()
        for name, offset, is_rev in index.locate(lo, hi, limit=100):
            located.add(
                (name, index.to_forward_position(name, offset, len(pattern), is_rev), is_rev)
            )
        assert located == brute_force_occurrences(small_ref, pattern)

    def test_absent_pattern_gives_empty_interval(self, small_ref):
        index = FMIndex(small_ref)
        # A 31-char pattern unlikely in 1.2kb; verify then assert.
        pattern = "ACGT" * 8
        if brute_force_occurrences(small_ref, pattern):
            pytest.skip("pattern accidentally present")
        lo, hi = index.backward_search(pattern)
        assert lo >= hi

    def test_n_in_pattern_never_matches(self, small_ref):
        index = FMIndex(small_ref)
        assert index.count("ANT") == 0

    def test_reverse_strand_found(self, small_ref):
        index = FMIndex(small_ref)
        contig = small_ref.contigs[1]
        pattern = reverse_complement(contig.fetch(50, 75))
        expected = brute_force_occurrences(small_ref, pattern)
        assert index.count(pattern) == len(expected) > 0

    def test_extend_left_consistent_with_search(self, small_ref):
        index = FMIndex(small_ref)
        pattern = small_ref.contigs[0].fetch(200, 215)
        lo, hi = 0, index.text_length
        for ch in reversed(pattern):
            lo, hi = index.extend_left(ch, lo, hi)
        assert (lo, hi) == index.backward_search(pattern)

    def test_memory_accounting_positive(self, small_ref):
        assert FMIndex(small_ref).memory_bytes() > 0


class TestReverseComplement:
    def test_basic(self):
        assert reverse_complement("ACGTN") == "NACGT"

    def test_lowercase_and_iupac_are_complemented(self):
        assert reverse_complement("acgtn") == "nacgt"
        assert reverse_complement("ACGR") == "YCGT"
        assert reverse_complement("RYKMBVDHSW") == "WSDHBVKMRY"
        assert reverse_complement("aCgRy") == "rYcGt"

    @given(st.text(alphabet="ACGTNRYKMBVDHSWacgtnrykmbvdhsw", max_size=200))
    def test_involution(self, seq):
        assert reverse_complement(reverse_complement(seq)) == seq
