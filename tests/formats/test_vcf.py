import numpy as np
import pytest

from repro.formats.vcf import (
    VcfHeader,
    VcfRecord,
    known_sites_mask,
    read_vcf,
    sort_records,
    write_vcf,
)


class TestRecord:
    def test_classification(self):
        snv = VcfRecord("c", 10, "A", "G")
        ins = VcfRecord("c", 10, "A", "ATT")
        dele = VcfRecord("c", 10, "ATT", "A")
        assert snv.is_snv and not snv.is_indel
        assert ins.is_insertion and ins.is_indel
        assert dele.is_deletion and dele.is_indel

    def test_end_spans_ref_allele(self):
        assert VcfRecord("c", 10, "ATT", "A").end == 13
        assert VcfRecord("c", 10, "A", "G").end == 11

    def test_empty_alleles_rejected(self):
        with pytest.raises(ValueError):
            VcfRecord("c", 1, "", "A")
        with pytest.raises(ValueError):
            VcfRecord("c", 1, "A", "")

    def test_key(self):
        rec = VcfRecord("c", 5, "A", "T")
        assert rec.key() == ("c", 5, "A", "T")


class TestTextRoundTrip:
    def test_line_roundtrip(self):
        rec = VcfRecord(
            "chr1",
            41,
            "A",
            "ATG",
            qual=55.5,
            genotype="0/1",
            depth=12,
            info={"DP": 12, "AF": 0.5},
        )
        parsed = VcfRecord.from_line(rec.to_line())
        assert parsed.key() == rec.key()
        assert parsed.genotype == "0/1"
        assert parsed.depth == 12
        assert parsed.info["DP"] == 12
        assert parsed.info["AF"] == 0.5

    def test_one_based_coordinates_in_text(self):
        rec = VcfRecord("chr1", 0, "A", "G")
        assert rec.to_line().split("\t")[1] == "1"

    def test_flag_info_entries(self):
        rec = VcfRecord.from_line("c\t5\t.\tA\tG\t10.0\tPASS\tVALIDATED\tGT:DP\t1/1:3")
        assert rec.info["VALIDATED"] is True

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            VcfRecord.from_line("a\tb\tc")

    def test_file_roundtrip(self, tmp_path):
        header = VcfHeader((("chr1", 1000),), sample="NA12878")
        records = [VcfRecord("chr1", 5, "A", "G", qual=30.0, genotype="1/1", depth=7)]
        path = str(tmp_path / "x.vcf")
        write_vcf(header, records, path)
        header2, records2 = read_vcf(path)
        assert header2.sample == "NA12878"
        assert header2.contigs == (("chr1", 1000),)
        assert records2[0].key() == records[0].key()


class TestSorting:
    def test_sort_by_contig_order_then_pos(self):
        records = [
            VcfRecord("chr2", 1, "A", "G"),
            VcfRecord("chr1", 9, "A", "G"),
            VcfRecord("chr1", 2, "A", "G"),
        ]
        out = sort_records(records, ["chr1", "chr2"])
        assert [(r.contig, r.pos) for r in out] == [("chr1", 2), ("chr1", 9), ("chr2", 1)]


class TestKnownSitesIndex:
    def test_snv_masks_single_position(self):
        masks = known_sites_mask([VcfRecord("c", 7, "A", "G")], {"c": (0, 20)})
        assert np.flatnonzero(masks["c"]).tolist() == [7]

    def test_deletion_masks_span(self):
        masks = known_sites_mask([VcfRecord("c", 7, "ATT", "A")], {"c": (5, 20)})
        assert (np.flatnonzero(masks["c"]) + 5).tolist() == [7, 8, 9]

    def test_multiple_contigs(self):
        masks = known_sites_mask(
            [VcfRecord("a", 1, "A", "G"), VcfRecord("b", 2, "C", "T")],
            {"a": (0, 10), "b": (0, 10)},
        )
        assert {name: np.flatnonzero(m).tolist() for name, m in masks.items()} == {
            "a": [1],
            "b": [2],
        }

    def test_mask_covers_only_the_window(self):
        known = [VcfRecord("c", 7, "ATT", "A"), VcfRecord("c", 30, "A", "G")]
        masks = known_sites_mask(known, {"c": (8, 20)})
        assert len(masks["c"]) == 12
        assert (np.flatnonzero(masks["c"]) + 8).tolist() == [8, 9]
