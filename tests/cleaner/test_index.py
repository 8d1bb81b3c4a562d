"""SamIndex / CoordinateIndex tests, cross-checked against linear scans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cleaner.index import CoordinateIndex, SamIndex
from repro.cleaner.sort import coordinate_sort, records_overlapping
from repro.formats.cigar import Cigar
from repro.formats.sam import SamHeader, SamRecord
from repro.formats import flags as F


def rec(name, pos, length=100, rname="chr1", flag=0):
    return SamRecord(
        qname=name, flag=flag, rname=rname, pos=pos, mapq=60,
        cigar=Cigar.parse(f"{length}M"), rnext="*", pnext=-1, tlen=0,
        seq="A" * length, qual="I" * length,
    )


@pytest.fixture(scope="module")
def records():
    rng = np.random.default_rng(81)
    out = []
    for i in range(300):
        contig = "chr1" if rng.random() < 0.7 else "chr2"
        out.append(rec(f"r{i}", int(rng.integers(0, 20_000)), rname=contig))
    out.append(
        SamRecord("u", F.UNMAPPED, "*", -1, 0, Cigar(()), "*", -1, 0, "A", "I")
    )
    return out


class TestSamIndex:
    def test_matches_linear_scan(self, records):
        index = SamIndex.build(records)
        rng = np.random.default_rng(82)
        for _ in range(40):
            start = int(rng.integers(0, 20_000))
            end = start + int(rng.integers(1, 3_000))
            expected = records_overlapping(records, "chr1", start, end)
            got = index.query("chr1", start, end)
            assert got == expected

    def test_query_spanning_bins(self, records):
        index = SamIndex.build(records, bin_width=128)
        wide = index.query("chr1", 0, 20_100)
        expected = records_overlapping(records, "chr1", 0, 20_100)
        assert wide == expected

    def test_empty_interval(self, records):
        index = SamIndex.build(records)
        assert index.query("chr1", 100, 100) == []

    def test_unknown_contig(self, records):
        index = SamIndex.build(records)
        assert index.query("chrX", 0, 1_000) == []

    def test_unmapped_excluded(self, records):
        index = SamIndex.build(records)
        all_hits = index.query("chr1", 0, 10**6) + index.query("chr2", 0, 10**6)
        assert all(not r.is_unmapped for r in all_hits)

    def test_depth_counts_non_duplicates(self):
        a, b, c = rec("a", 100), rec("b", 120), rec("c", 150)
        b.set_duplicate(True)
        index = SamIndex.build([a, b, c])
        assert index.depth_at("chr1", 160) == 2  # a (100-200) + c; b is dup

    def test_invalid_bin_width(self):
        with pytest.raises(ValueError):
            SamIndex.build([], bin_width=0)


class TestCoordinateIndex:
    def test_offsets_are_lower_bounds(self, records):
        header = SamHeader.unsorted([("chr1", 30_000), ("chr2", 30_000)])
        ordered = coordinate_sort(records, header)
        index = CoordinateIndex.build(ordered, stride=16)
        rng = np.random.default_rng(83)
        for _ in range(30):
            pos = int(rng.integers(0, 20_000))
            offset = index.first_offset_at_or_after("chr1", pos)
            assert offset is not None
            # Everything before the returned offset on chr1 starts <= pos.
            for r in ordered[:offset]:
                if r.rname == "chr1" and not r.is_unmapped:
                    assert r.pos <= pos

    def test_unknown_contig_none(self, records):
        header = SamHeader.unsorted([("chr1", 30_000), ("chr2", 30_000)])
        index = CoordinateIndex.build(coordinate_sort(records, header))
        assert index.first_offset_at_or_after("chrX", 0) is None

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            CoordinateIndex.build([], stride=0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5_000), st.integers(10, 300)), max_size=60),
    st.integers(0, 5_000),
    st.integers(1, 2_000),
)
def test_index_query_property(placements, start, span):
    records = [rec(f"p{i}", pos, length) for i, (pos, length) in enumerate(placements)]
    index = SamIndex.build(records, bin_width=256)
    end = start + span
    assert index.query("chr1", start, end) == records_overlapping(
        records, "chr1", start, end
    )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3_000), st.integers(1, 80), st.integers(0, 400), st.integers(1, 80)),
        max_size=60,
    ),
    st.integers(0, 3_500),
    st.integers(1, 1_500),
)
def test_index_query_with_deletions_equals_brute_force(placements, start, span):
    # A deletion makes a record's reference span longer than its SEQ.
    records = [
        SamRecord(
            f"d{i}", 0, "chr1", pos, 60, Cigar.parse(f"{a}M{d}D{b}M" if d else f"{a + b}M"),
            "*", -1, 0, "A" * (a + b), "I" * (a + b),
        )
        for i, (pos, a, d, b) in enumerate(placements)
    ]
    end = start + span
    expected = [r for r in records if r.pos < end and r.pos + r.cigar.reference_length() > start]
    assert SamIndex.build(records, bin_width=128).query("chr1", start, end) == expected
