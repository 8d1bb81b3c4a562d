"""Suffix array, BWT, and FM-index tests (cross-checked vs brute force)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.align.fmindex import FMIndex, reverse_complement
from repro.align.seeds import Seed, find_seeds_batch
from repro.align.suffix_array import build_suffix_array
from repro.formats.fasta import Contig, Reference
from repro.sim import generate_reference
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

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.text(alphabet="ACGT", min_size=1, max_size=12), min_size=1, max_size=8),
        st.integers(1, 12),
    )
    def test_matches_naive_on_repeats(self, units, copies):
        # Long exact repeats keep suffixes tied past the 8-byte key, so
        # the doubling rounds run.
        data = "".join(unit * copies for unit in units).encode() + b"\x00"
        expected = ref.naive_suffix_array(data).tolist()
        assert build_suffix_array(data).tolist() == expected

    def test_traced_peak_is_bounded_per_character(self):
        # Both strands of the ledger's full-size reference: 26,601 bytes.
        reference = generate_reference([8_700, 4_600], seed=211)
        text = b"".join(
            contig.sequence + reverse_complement(contig.sequence.decode()).encode()
            for contig in reference.contigs
        ) + b"\x00"
        build_suffix_array(text)  # first-call allocations out of the trace
        tracemalloc.start()
        try:
            build_suffix_array(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(text) == 26_601
        assert peak / len(text) <= 40, peak / len(text)


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
    @given(st.text(alphabet="ACGTN", min_size=1, max_size=120))
    def test_lf_table_matches_brute_force(self, seq):
        # The text is both strands plus the sentinel; lf[c, row] is the
        # count of text characters below c plus c's count in bwt[:row].
        text = seq.encode() + reverse_complement(seq).encode() + b"\x00"
        codes = [FMIndex.ALPHABET.index(byte) for byte in ref.bwt(text).tobytes()]
        index = FMIndex(Reference([Contig("c", seq.encode())]))
        assert index._lf.reshape(len(FMIndex.ALPHABET), -1).tolist() == [
            [
                sum(c < code for c in codes) + codes[:row].count(code)
                for row in range(len(text) + 1)
            ]
            for code in range(len(FMIndex.ALPHABET))
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
        located = set(ref.locate(index, lo, hi, len(pattern), limit=100))
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
        codes = index.search_codes(pattern.encode())
        (start,), (lo,), (hi,) = index.extend_lanes(codes, [len(codes)], [0])
        assert start == 0
        assert (int(lo), int(hi)) == ref.backward_search(index, pattern)

    def test_empty_match_interval_skips_the_sentinel_row(self, small_ref):
        # An empty read seeded with min_seed_length=0 is an empty match,
        # whose interval is every row; row 0 is the sentinel suffix.
        index = FMIndex(small_ref)
        hits = ref.locate(index, 0, index.text_length, 0, limit=3)
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
        index = FMIndex(reference)
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
        assert ref.locate(index, lo, hi, len(pattern), limit) == expected


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
