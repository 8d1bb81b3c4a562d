"""Block format (GPB2 CompressedBundle) and partition decode tests."""

import pytest

from repro.engine.blockmanager import BlockCorruptionError
from repro.engine.bundle import (
    BUNDLE_MAGIC,
    CompressedBundle,
    approx_logical_bytes,
    decode_partition,
    encode_partition,
)
from repro.engine.serializers import CompactSerializer, GpfSerializer, get_serializer
from repro.engine.metrics import MetricsRegistry
from repro.formats.fastq import FastqPair, FastqRecord
from repro.formats.sam import SamRecord


def make_fastq(n: int) -> list[FastqRecord]:
    bases = "ACGT"
    out = []
    for i in range(n):
        seq = "".join(bases[(i + j) % 4] for j in range(40))
        out.append(FastqRecord(f"read{i}", seq, "I" * 40))
    return out


class TestCompressedBundle:
    def test_header_round_trip(self):
        records = make_fastq(10)
        bundle = CompressedBundle.encode(records, GpfSerializer())
        parsed = CompressedBundle.frombytes(bundle.tobytes())
        assert parsed is not None
        assert parsed.codec == b"Q"
        assert parsed.count == 10
        assert parsed.logical_bytes == bundle.logical_bytes
        assert parsed.payload == bundle.payload

    def test_codec_tag_records_fallback(self):
        bundle = CompressedBundle.encode([1, 2, 3], GpfSerializer())
        assert bundle.codec == b"F"

    def test_codec_tag_opaque_for_pickle(self):
        bundle = CompressedBundle.encode([1, 2, 3], CompactSerializer())
        assert bundle.codec == b"."

    def test_pair_partitions_use_pair_codec(self):
        records = make_fastq(8)
        pairs = [
            FastqPair(records[i], records[i + 1]) for i in range(0, 8, 2)
        ]
        bundle = CompressedBundle.encode(pairs, GpfSerializer())
        assert bundle.codec == b"P"
        assert bundle.count == 4

    @pytest.mark.parametrize(
        "blob", [b"not a bundle", b"", BUNDLE_MAGIC + b"\x02"],
        ids=["no_magic", "empty", "short_header"],
    )
    def test_non_gpb2_blob_is_refused(self, blob):
        with pytest.raises(BlockCorruptionError, match="GPB2"):
            CompressedBundle.frombytes(blob)

    def test_wrong_version_is_refused(self):
        bundle = CompressedBundle.encode(make_fastq(2), GpfSerializer())
        blob = bytearray(bundle.tobytes())
        blob[4] = 99  # version byte
        with pytest.raises(BlockCorruptionError, match="version 99"):
            CompressedBundle.frombytes(bytes(blob))

    def test_compression_ratio_over_one_for_genomic(self):
        bundle = CompressedBundle.encode(make_fastq(100), GpfSerializer())
        assert bundle.ratio > 2.0
        assert bundle.compressed_bytes < bundle.logical_bytes

    def test_magic_prefixes_blob(self):
        blob, _ = encode_partition(make_fastq(3), GpfSerializer())
        assert blob.startswith(BUNDLE_MAGIC)


class TestDecodePartition:
    @pytest.mark.parametrize("name", ["gpf", "compact"])
    def test_round_trips_to_a_list(self, name):
        serializer = get_serializer(name)
        records = make_fastq(20)
        blob, _ = encode_partition(records, serializer)
        part = decode_partition(blob, serializer)
        assert type(part) is list
        assert part == records

    def test_empty_partition(self):
        blob, bundle = encode_partition([], GpfSerializer())
        assert bundle.count == 0
        assert decode_partition(blob, GpfSerializer()) == []

    def test_telemetry_counts_decode(self):
        metrics = MetricsRegistry()
        blob, _ = encode_partition(make_fastq(12), GpfSerializer())
        decode_partition(blob, GpfSerializer(), metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["blockmanager.decoded_records"] == 12
        assert counters["blockmanager.decode_seconds"] > 0


class TestApproxLogicalBytes:
    def test_scales_with_record_size(self):
        small = approx_logical_bytes(make_fastq(1))
        big = approx_logical_bytes(make_fastq(100))
        assert big > small * 50

    def test_pairs_and_keyed_records(self):
        records = make_fastq(2)
        pair = FastqPair(records[0], records[1])
        assert approx_logical_bytes([pair]) > approx_logical_bytes([records[0]])
        from repro.formats.cigar import Cigar

        sam = SamRecord(
            qname="q", flag=0, rname="chr1", pos=1, mapq=60,
            cigar=Cigar.parse("4M"), rnext="*", pnext=-1, tlen=0,
            seq="ACGT", qual="IIII",
        )
        assert approx_logical_bytes([("key", sam)]) > 0

    def test_opaque_elements_charged_flat(self):
        assert approx_logical_bytes([object(), object()]) == 320
