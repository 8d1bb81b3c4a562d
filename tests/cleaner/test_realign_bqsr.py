"""Indel realignment and BQSR tests."""

import numpy as np
import pytest

from repro.cleaner.bqsr import (
    RecalibrationTable,
    apply_recalibration,
    build_recalibration_table,
    quality_calibration_error,
)
from repro.cleaner.realign import (
    RealignmentInterval,
    find_realignment_intervals,
    merge_intervals,
    realign_reads,
)
from repro.cleaner.sort import coordinate_sort, is_coordinate_sorted, records_overlapping
from repro.formats.cigar import Cigar
from repro.formats.fasta import Contig, Reference
from repro.formats.sam import SamHeader, SamRecord
from repro.formats.vcf import VcfRecord


def rec(qname, pos, cigar, seq, qual=None, rname="chr1", flag=0):
    return SamRecord(
        qname=qname, flag=flag, rname=rname, pos=pos, mapq=60,
        cigar=Cigar.parse(cigar), rnext="*", pnext=-1, tlen=0,
        seq=seq, qual=qual or ("I" * len(seq)),
    )


class TestSortHelpers:
    def test_coordinate_sort_and_check(self, sam_header):
        a = rec("a", 100, "4M", "ACGT")
        b = rec("b", 50, "4M", "ACGT")
        out = coordinate_sort([a, b], sam_header)
        assert [r.pos for r in out] == [50, 100]
        assert is_coordinate_sorted(out, sam_header)
        assert not is_coordinate_sorted([a, b], sam_header)

    def test_records_overlapping(self):
        a = rec("a", 10, "10M", "A" * 10)
        b = rec("b", 50, "10M", "A" * 10)
        assert records_overlapping([a, b], "chr1", 15, 55) == [a, b]
        assert records_overlapping([a, b], "chr1", 20, 50) == []
        assert records_overlapping([a, b], "chr2", 0, 100) == []


class TestIntervalDetection:
    def test_indel_cigar_creates_interval(self):
        r = rec("a", 100, "20M2D20M", "A" * 40)
        (iv,) = find_realignment_intervals([r])
        assert iv.contig == "chr1"
        assert iv.start <= 120 <= iv.end

    def test_clean_reads_create_no_intervals(self):
        assert find_realignment_intervals([rec("a", 0, "40M", "A" * 40)]) == []

    def test_nearby_intervals_merge(self):
        ivs = [
            RealignmentInterval("c", 10, 30),
            RealignmentInterval("c", 25, 45),
            RealignmentInterval("c", 100, 120),
        ]
        merged = merge_intervals(ivs)
        assert merged == [
            RealignmentInterval("c", 10, 45),
            RealignmentInterval("c", 100, 120),
        ]

    def test_duplicates_excluded(self):
        r = rec("a", 100, "20M2D20M", "A" * 40)
        r.set_duplicate(True)
        assert find_realignment_intervals([r]) == []


class TestRealignment:
    @pytest.fixture()
    def deletion_scene(self):
        """A reference and reads around a 4-base deletion in the donor."""
        rng = np.random.default_rng(17)
        seq = "".join(rng.choice(list("ACGT"), size=400))
        reference = Reference([Contig("chr1", seq.encode())])
        del_at = 200  # donor lacks reference[200:204]
        donor = seq[:del_at] + seq[del_at + 4 :]
        return reference, donor, del_at

    def test_misaligned_read_is_shifted_to_consensus(self, deletion_scene):
        reference, donor, del_at = deletion_scene
        # One "good" read carries the deletion in its CIGAR (as a perfect
        # aligner would); several bad reads were placed without the gap.
        good_start = del_at - 30
        good_seq = donor[good_start : good_start + 60]
        good = rec("good", good_start, "30M4D30M", good_seq)
        bad_reads = []
        for i, offset in enumerate((25, 20, 15)):
            start = del_at - offset
            seq = donor[start : start + 50]
            bad_reads.append(rec(f"bad{i}", start, "50M", seq))
        records = [good] + bad_reads
        intervals = find_realignment_intervals(records)
        assert intervals
        realigned = realign_reads(records, reference, intervals)
        assert realigned >= 1
        assert any("D" in str(r.cigar) for r in bad_reads)

    def test_consistent_reads_untouched(self, deletion_scene):
        reference, donor, del_at = deletion_scene
        far_start = 10
        seq = donor[far_start : far_start + 50]  # before the deletion
        r1 = rec("r1", far_start, "50M", seq)
        r2 = rec("r2", far_start + 3, "50M", donor[far_start + 3 : far_start + 53])
        realign_reads([r1, r2], reference, find_realignment_intervals([r1, r2]))
        assert str(r1.cigar) == "50M"


class TestBqsr:
    def _mini_scene(self, n_reads=80, miscalib=8):
        """Reads whose real error rate is worse than reported quality."""
        rng = np.random.default_rng(23)
        seq = "".join(rng.choice(list("ACGT"), size=2_000))
        reference = Reference([Contig("chr1", seq.encode())])
        records = []
        reported_q = 35
        true_q = reported_q - miscalib  # actual error rate is higher
        p_err = 10 ** (-true_q / 10)
        for i in range(n_reads):
            start = int(rng.integers(0, 1_900))
            bases = list(seq[start : start + 100])
            for j in range(100):
                if rng.random() < p_err:
                    bases[j] = "ACGT"[(("ACGT".index(bases[j])) + 1) % 4]
            records.append(
                rec(f"r{i}", start, "100M", "".join(bases), qual=chr(reported_q + 33) * 100)
            )
        return reference, records

    def test_table_counts_mismatches(self):
        reference, records = self._mini_scene()
        table = build_recalibration_table(records, reference, [])
        assert table.total_observations > 0
        assert table.total_errors > 0

    def test_known_sites_masked(self):
        reference, records = self._mini_scene()
        # Masking every position removes all observations.
        known = [
            VcfRecord("chr1", p, "A", "G") for p in range(0, 2_000)
        ]
        table = build_recalibration_table(records, reference, known)
        assert table.total_observations == 0

    def test_duplicates_excluded_from_counting(self):
        reference, records = self._mini_scene(n_reads=10)
        for r in records:
            r.set_duplicate(True)
        table = build_recalibration_table(records, reference, [])
        assert table.total_observations == 0

    def test_recalibration_moves_quality_toward_empirical(self):
        reference, records = self._mini_scene(miscalib=8)
        table = build_recalibration_table(records, reference, [])
        changed = apply_recalibration(records, table)
        assert changed > 0
        # Reported quality was 35 but the empirical rate implies ~25 (the
        # simulated miscalibration plus smoothing): new scores must drop
        # into that neighbourhood rather than stay at 35.
        mean_q = np.mean([q for r in records for q in r.phred_scores])
        assert 21 <= mean_q <= 31

    def test_calibration_error_shrinks(self):
        reference, records = self._mini_scene(miscalib=8)
        before = quality_calibration_error(records, reference, [])
        table = build_recalibration_table(records, reference, [])
        apply_recalibration(records, table)
        after = quality_calibration_error(records, reference, [])
        assert after < before

    def test_table_merge_is_additive(self):
        reference, records = self._mini_scene()
        full = build_recalibration_table(records, reference, [])
        half1 = build_recalibration_table(records[:40], reference, [])
        half2 = build_recalibration_table(records[40:], reference, [])
        merged = half1.merge(half2)
        assert merged.total_observations == full.total_observations
        assert merged.total_errors == full.total_errors
        assert merged.by_quality == full.by_quality
        assert merged.by_cycle == full.by_cycle
        assert merged.by_context == full.by_context

    def test_empty_qual_is_skipped_by_both_passes(self):
        reference, records = self._mini_scene(n_reads=5)
        counted = build_recalibration_table(records[1:], reference, [])
        records[0].qual = ""  # QUAL "*"
        table = build_recalibration_table(records, reference, [])
        assert table.by_quality == counted.by_quality
        apply_recalibration(records, table)
        assert records[0].qual == ""

    @pytest.mark.parametrize("qual", ["I" * 99, "I" * 101])
    def test_qual_seq_length_mismatch_raises(self, qual):
        reference, records = self._mini_scene(n_reads=5)
        table = build_recalibration_table(records, reference, [])
        records[2].qual = qual
        with pytest.raises(ValueError, match="'r2'"):
            build_recalibration_table(records, reference, [])
        with pytest.raises(ValueError, match="'r2'"):
            apply_recalibration(records, table)

    def test_cigar_past_seq_raises(self):
        reference, records = self._mini_scene(n_reads=3)
        records[1].cigar = Cigar.parse("101M")
        with pytest.raises(ValueError, match="'r1'"):
            build_recalibration_table(records, reference, [])

    def test_bases_outside_the_contig_are_not_counted(self):
        reference = Reference([Contig("chr1", b"ACGTACGT")])
        before = rec("a", -2, "4M", "TTAC")  # starts two bases before the contig
        after = rec("b", 6, "4M", "GTAA")  # ends two bases past it
        table = build_recalibration_table([before, after], reference, [])
        assert table.total_observations == 4
        assert table.total_errors == 0

    def test_empty_table_is_identity(self):
        table = RecalibrationTable()
        assert table.recalibrate(30, 5, "AC") == 30
