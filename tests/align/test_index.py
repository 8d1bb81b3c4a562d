"""Suffix array, BWT, and FM-index tests (cross-checked vs brute force)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.align.fmindex import FMIndex, reverse_complement
from repro.align.seeds import Seed, find_seeds_batch
from repro.align.suffix_array import build_suffix_array
from repro.formats.fasta import Contig, Reference
from tests.align import reference_seeds as ref

dna = st.text(alphabet="ACGT", min_size=1, max_size=200)


class TestSuffixArray:
    def test_matches_naive_on_classic_strings(self):
        for text in [b"banana\x00", b"mississippi\x00", b"AAAA\x00", b"ACGTACGT\x00"]:
            expected = ref.naive_suffix_array(text).tolist()
            assert build_suffix_array(text).tolist() == expected

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
        expected = ref.naive_suffix_array(data).tolist()
        assert build_suffix_array(data).tolist() == expected


class TestBWT:
    @settings(max_examples=40, deadline=None)
    @given(dna)
    def test_inverse_roundtrip(self, text):
        data = text.encode() + b"\x00"
        assert ref.inverse_bwt(ref.bwt(data)) == data

    def test_empty(self):
        assert ref.inverse_bwt(np.array([], dtype=np.uint8)) == b""


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
        codes = [FMIndex.ALPHABET.index(byte) for byte in ref.bwt(text).tobytes()]
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
            lo, hi = ref.backward_search(index, pattern)
            assert hi - lo == len(expected)

    def test_locate_positions_match_brute_force(self, small_ref):
        index = FMIndex(small_ref)
        contig = small_ref.contigs[0]
        pattern = contig.fetch(100, 125)
        lo, hi = ref.backward_search(index, pattern)
        located = set(index.locate(lo, hi, len(pattern), limit=100))
        assert located == brute_force_occurrences(small_ref, pattern)

    def test_absent_pattern_gives_empty_interval(self, small_ref):
        index = FMIndex(small_ref)
        # A 31-char pattern unlikely in 1.2kb; verify then assert.
        pattern = "ACGT" * 8
        if brute_force_occurrences(small_ref, pattern):
            pytest.skip("pattern accidentally present")
        lo, hi = ref.backward_search(index, pattern)
        assert lo >= hi

    def test_n_in_pattern_never_matches(self, small_ref):
        index = FMIndex(small_ref)
        assert ref.count(index, "ANT") == 0

    def test_reverse_strand_found(self, small_ref):
        index = FMIndex(small_ref)
        contig = small_ref.contigs[1]
        pattern = reverse_complement(contig.fetch(50, 75))
        expected = brute_force_occurrences(small_ref, pattern)
        assert ref.count(index, pattern) == len(expected) > 0

    def test_extend_left_consistent_with_search(self, small_ref):
        index = FMIndex(small_ref)
        pattern = small_ref.contigs[0].fetch(200, 215)
        lo, hi = [0], [index.text_length]
        for code in reversed(index.search_codes(pattern.encode())):
            lo, hi = index.extend_left_batch([code], lo, hi)
        assert (int(lo[0]), int(hi[0])) == ref.backward_search(index, pattern)

    def test_empty_match_interval_skips_the_sentinel_row(self, small_ref):
        # An empty read seeded with min_seed_length=0 is an empty match,
        # whose interval is every row; row 0 is the sentinel suffix.
        index = FMIndex(small_ref)
        hits = index.locate(0, index.text_length, 0, limit=3)
        assert len(hits) == 2
        assert find_seeds_batch(
            index, [""], min_seed_length=0, max_hits_per_seed=3
        ) == [[Seed(0, 0, *hit) for hit in hits]]


#: A contig of ACGT stretches and N runs.
contig_seqs = st.lists(
    st.one_of(
        st.text(alphabet="ACGT", min_size=1, max_size=40),
        st.integers(1, 6).map(lambda k: "N" * k),
    ),
    min_size=1,
    max_size=4,
).map("".join)


class TestLocate:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(contig_seqs, min_size=1, max_size=3), st.data())
    def test_locate_is_the_naive_suffix_array_in_forward_coordinates(
        self, seqs, data
    ):
        reference = Reference(
            [Contig(f"c{k}", seq.encode()) for k, seq in enumerate(seqs)]
        )
        index = FMIndex(reference, occ_sample=data.draw(st.sampled_from([1, 4, 32])))
        # The index text, its strand spans and naive suffix array.
        spans, text = [], ""
        for k, seq in enumerate(seqs):
            for strand, is_rev in ((seq, False), (reverse_complement(seq), True)):
                spans.append((f"c{k}", len(text), len(text) + len(strand), is_rev))
                text += strand
        text = (text + "\x00").encode()
        sa = ref.naive_suffix_array(text).tolist()

        # A pattern cut from either strand of any contig, without N.
        _, start, end, _ = data.draw(st.sampled_from(spans))
        begin = data.draw(st.integers(start, end - 1))
        pattern = text[begin : data.draw(st.integers(begin + 1, end))]
        assume(b"N" not in pattern)
        limit = data.draw(st.integers(1, 40))

        rows = [row for row, pos in enumerate(sa) if text[pos:].startswith(pattern)]
        lo, hi = ref.backward_search(index, pattern.decode())
        assert (lo, hi) == (rows[0], rows[-1] + 1)
        expected = []
        for pos in (sa[row] for row in rows[:limit]):
            name, start, end, is_rev = next(s for s in spans if s[1] <= pos < s[2])
            offset = pos - start
            forward = end - start - offset - len(pattern) if is_rev else offset
            expected.append((name, forward, is_rev))
        assert index.locate(lo, hi, len(pattern), limit) == expected


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
