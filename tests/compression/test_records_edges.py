"""Codec edge cases: every record either round-trips byte-identically
through the §4.1 codecs or raises :class:`CodecUnsupportedError`, the
typed error that routes the whole block to the pickle fallback."""

import pytest

from repro.compression.records import (
    CodecUnsupportedError,
    FastqCodec,
    SamCodec,
    compressed_size,
    logical_size,
    ratio,
    roundtrip_safe,
)
from repro.compression.twobit import MASK_QUAL_CHAR
from repro.engine.serializers import GpfSerializer, get_serializer
from repro.formats.cigar import Cigar
from repro.formats.fastq import FastqRecord
from repro.formats.sam import SamRecord


def sam(qname="r0", seq="ACGT", qual="IIII", tags=None) -> SamRecord:
    return SamRecord(
        qname=qname,
        flag=0,
        rname="chr1",
        pos=10,
        mapq=60,
        cigar=Cigar.parse(f"{len(seq)}M") if seq else Cigar.parse("*"),
        rnext="*",
        pnext=-1,
        tlen=0,
        seq=seq,
        qual=qual,
        tags=tags or {},
    )


class TestEmptyPartitions:
    def test_fastq_empty_batch(self):
        blob = FastqCodec.encode([], strict=True)
        assert FastqCodec.decode(blob) == []
        assert FastqCodec.record_count(blob) == 0
        assert FastqCodec.decode_many([blob, blob]) == []

    def test_sam_empty_batch(self):
        blob = SamCodec.encode([], strict=True)
        assert SamCodec.decode(blob) == []
        assert SamCodec.record_count(blob) == 0

    def test_zero_length_fastq_record(self):
        rec = FastqRecord("empty", "", "")
        blob = FastqCodec.encode([rec], strict=True)
        assert FastqCodec.decode(blob) == [rec]

    def test_zero_length_sam_record(self):
        rec = sam(seq="", qual="")
        blob = SamCodec.encode([rec], strict=True)
        assert SamCodec.decode(blob) == [rec]


class TestRoundtripSafe:
    def test_pure_acgt_is_safe(self):
        assert roundtrip_safe("ACGT", "IIII")

    def test_n_with_mask_quality_is_safe(self):
        assert roundtrip_safe("ACNGT", "II" + MASK_QUAL_CHAR + "II")

    def test_n_with_real_quality_is_unsafe(self):
        assert not roundtrip_safe("ACNGT", "IIIII")

    def test_lowercase_is_unsafe(self):
        assert not roundtrip_safe("acgt", "IIII")

    def test_iupac_ambiguity_is_unsafe(self):
        assert not roundtrip_safe("ACRT", "IIII")

    def test_acgt_with_mask_quality_is_unsafe(self):
        # '!' on a real base would decode as if it had been masked.
        assert not roundtrip_safe("ACGT", "I!II")

    def test_length_mismatch_unsafe(self):
        assert not roundtrip_safe("ACGT", "III")

    def test_non_ascii_unsafe(self):
        assert not roundtrip_safe("ACGé", "IIII")

    def test_empty_is_safe(self):
        assert roundtrip_safe("", "")


class TestStrictMode:
    def test_strict_rejects_n_with_real_quality(self):
        rec = FastqRecord("r", "ACNGT", "IIIII")
        with pytest.raises(CodecUnsupportedError):
            FastqCodec.encode([rec], strict=True)

    def test_strict_rejects_lowercase(self):
        rec = FastqRecord("r", "acgt", "IIII")
        with pytest.raises(CodecUnsupportedError):
            FastqCodec.encode([rec], strict=True)

    def test_strict_accepts_non_ascii_name(self):
        # Names are a length-prefixed utf-8 column: any str round-trips.
        records = [FastqRecord("réad", "ACGT", "IIII"), FastqRecord("r\tb\ud800", "A", "I")]
        assert FastqCodec.decode(FastqCodec.encode(records, strict=True)) == records

    def test_strict_accepts_masked_n(self):
        rec = FastqRecord("r", "ACNGT", "II" + MASK_QUAL_CHAR + "II")
        blob = FastqCodec.encode([rec], strict=True)
        assert FastqCodec.decode(blob) == [rec]

    def test_lenient_mode_still_lossy(self):
        # Default (lenient) encode keeps the historical behavior: the N's
        # real quality is clobbered to the Phred-0 marker.
        rec = FastqRecord("r", "ACNGT", "IIIII")
        [out] = FastqCodec.decode(FastqCodec.encode([rec]))
        assert out.sequence == "ACNGT"
        assert out.quality == "II" + MASK_QUAL_CHAR + "II"

    def test_sam_strict_rejects_unsafe_seq(self):
        with pytest.raises(CodecUnsupportedError):
            SamCodec.encode([sam(seq="ANGT", qual="IIII")], strict=True)


class TestExoticSamTags:
    def test_plain_tags_round_trip(self):
        rec = sam(tags={"NM": 2, "AS": 37, "XS": 0})
        blob = SamCodec.encode([rec], strict=True)
        assert SamCodec.decode(blob) == [rec]

    def test_z_tag_with_colons_round_trips(self):
        rec = sam(tags={"MD": "10A5^AC20", "SA": "chr2,100,+,50M,60,0;"})
        blob = SamCodec.encode([rec], strict=True)
        assert SamCodec.decode(blob) == [rec]

    def test_float_tag_round_trips(self):
        rec = sam(tags={"ZF": 1.5})
        blob = SamCodec.encode([rec], strict=True)
        assert SamCodec.decode(blob) == [rec]

    # Tags are one pickled column: no byte inside a value frames anything.
    def test_tab_in_tag_value_round_trips(self):
        rec = sam(tags={"XX": "a\tb"})
        assert SamCodec.decode(SamCodec.encode([rec], strict=True)) == [rec]

    def test_newline_in_tag_value_round_trips(self):
        rec = sam(tags={"XX": "a\nb"})
        assert SamCodec.decode(SamCodec.encode([rec], strict=True)) == [rec]

    def test_non_ascii_tag_value_round_trips(self):
        rec = sam(tags={"XX": "café"})
        assert SamCodec.decode(SamCodec.encode([rec], strict=True)) == [rec]

    def test_tag_values_keep_their_types(self):
        rec = sam(tags={"XB": True, "XI": 3, "XF": 3.0, "XZ": "3", "XL": [1, 2]})
        [out] = SamCodec.decode(SamCodec.encode([rec], strict=True))
        assert [type(v) for v in out.tags.values()] == [bool, int, float, str, list]
        assert out == rec

    def test_non_ascii_text_fields_round_trip(self):
        rec = sam(qname="réad\t1")
        rec.rname, rec.rnext = "chr\u00e91", "chr\ud800"
        assert SamCodec.decode(SamCodec.encode([rec, sam()], strict=True)) == [rec, sam()]

    def test_strict_rejects_a_non_int_integer_field(self):
        for field, value in (("flag", True), ("pos", 10.0), ("tlen", "0")):
            rec = sam()
            setattr(rec, field, value)
            with pytest.raises(CodecUnsupportedError):
                SamCodec.encode([rec], strict=True)


class TestSerializerFallbackByteIdentical:
    """The serializer must round-trip *everything*: codec when safe,
    pickle fallback otherwise — always byte-identical records."""

    @pytest.mark.parametrize(
        "rec",
        [
            FastqRecord("n-real-qual", "ACNGT", "IIIII"),
            FastqRecord("lowercase", "acgt", "IIII"),
            FastqRecord("iupac", "ACRYSWKM", "IIIIIIII"),
            FastqRecord("mask-collision", "ACGT", "I!II"),
            FastqRecord("empty", "", ""),
        ],
        ids=lambda r: r.name,
    )
    def test_unsafe_fastq_falls_back_byte_identical(self, rec):
        serializer = GpfSerializer()
        blob = serializer.dumps([rec])
        assert serializer.loads(blob) == [rec]

    def test_unsafe_partition_tagged_fallback(self):
        serializer = GpfSerializer()
        blob = serializer.dumps([FastqRecord("r", "ACNGT", "IIIII")])
        assert blob[:1] == b"F"

    def test_safe_partition_takes_codec(self):
        serializer = GpfSerializer()
        blob = serializer.dumps([FastqRecord("r", "ACGT", "IIII")])
        assert blob[:1] == b"Q"

    def test_exotic_sam_takes_the_codec_byte_identical(self):
        rec = sam(qname="réad", tags={"XX": "a\tb", "YY": "café"})
        serializer = GpfSerializer()
        blob = serializer.dumps([rec])
        assert blob[:1] == b"S"
        assert serializer.loads(blob) == [rec]
        assert serializer.loads(blob)[0].to_line() == rec.to_line()

    def test_sam_with_a_non_int_field_falls_back_byte_identical(self):
        rec = sam()
        rec.flag = True
        serializer = GpfSerializer()
        blob = serializer.dumps([rec])
        assert blob[:1] == b"F"
        assert serializer.loads(blob)[0].flag is True

    def test_sam_qual_without_seq_falls_back_byte_identical(self):
        # The codec stores QUAL only beside SEQ: this record used to take
        # the codec and come back with qual="" ("* IIII" became "* *").
        rec = sam(seq="", qual="IIII")
        serializer = get_serializer("gpf")
        blob = serializer.dumps([rec])
        assert blob[:1] == b"F"
        assert serializer.loads(blob) == [rec]
        assert serializer.loads(blob)[0].to_line() == rec.to_line()
        with pytest.raises(CodecUnsupportedError):
            SamCodec.encode([rec], strict=True)

    def test_mixed_safety_partition_falls_back_whole(self):
        safe = FastqRecord("ok", "ACGT", "IIII")
        unsafe = FastqRecord("bad", "ACNGT", "IIIII")
        serializer = GpfSerializer()
        blob = serializer.dumps([safe, unsafe])
        assert blob[:1] == b"F"
        assert serializer.loads(blob) == [safe, unsafe]


class TestSizeHelpers:
    def test_compressed_size_reuses_encoded(self):
        records = [FastqRecord(f"r{i}", "ACGT" * 10, "I" * 40) for i in range(8)]
        blob = FastqCodec.encode(records)
        assert compressed_size(records, blob) == len(blob)
        assert compressed_size(records) == len(blob)

    def test_ratio_single_pass(self):
        records = [FastqRecord(f"r{i}", "ACGT" * 10, "I" * 40) for i in range(8)]
        blob = FastqCodec.encode(records)
        assert ratio(records, blob) == logical_size(records) / len(blob)
        assert ratio(records, blob) > 1.0

    def test_ratio_empty_is_one(self):
        assert ratio([]) == 1.0
