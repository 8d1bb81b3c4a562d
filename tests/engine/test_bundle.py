"""Block format (GPB2 CompressedBundle) and lazy partition decode tests."""

import pickle

import pytest

from repro.engine.blockmanager import BlockCorruptionError
from repro.engine.bundle import (
    BUNDLE_MAGIC,
    CompressedBundle,
    LazyPartition,
    PartitionChain,
    approx_logical_bytes,
    decode_partition,
    encode_partition,
    iter_record_batches,
)
from repro.engine.serializers import CompactSerializer, GpfSerializer
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


class TestLazyPartition:
    def _lazy(self, records, serializer=None, metrics=None):
        serializer = serializer or GpfSerializer()
        blob, _ = encode_partition(records, serializer)
        part = decode_partition(blob, serializer, metrics=metrics)
        assert isinstance(part, LazyPartition)
        return part

    def test_iteration_round_trips(self):
        records = make_fastq(20)
        assert list(self._lazy(records)) == records

    def test_len_and_bool_without_decode(self):
        part = self._lazy(make_fastq(7))
        assert len(part) == 7
        assert bool(part)
        empty = self._lazy([])
        assert len(empty) == 0
        assert not empty

    def test_reiteration_decodes_again(self):
        part = self._lazy(make_fastq(5))
        assert list(part) == list(part)

    def test_getitem_int_and_negative(self):
        records = make_fastq(9)
        part = self._lazy(records)
        assert part[0] == records[0]
        assert part[4] == records[4]
        assert part[-1] == records[-1]
        with pytest.raises(IndexError):
            part[9]

    def test_getitem_slice(self):
        records = make_fastq(6)
        part = self._lazy(records)
        assert part[1:4] == records[1:4]

    def test_materialize(self):
        records = make_fastq(4)
        assert self._lazy(records).materialize() == records

    def test_batches_chunk_size(self):
        part = self._lazy(make_fastq(10))
        batches = list(part.batches(batch_size=3))
        assert [len(b) for b in batches] == [3, 3, 3, 1]

    def test_telemetry_counts_decode(self):
        metrics = MetricsRegistry()
        part = self._lazy(make_fastq(12), metrics=metrics)
        list(part)
        counters = metrics.snapshot()["counters"]
        assert counters["blockmanager.decoded_records"] == 12
        assert counters["blockmanager.decode_seconds"] > 0

    def test_pickle_round_trip(self):
        records = make_fastq(6)
        part = self._lazy(records)
        clone = pickle.loads(pickle.dumps(part))
        assert list(clone) == records
        assert len(clone) == 6

    def test_serializer_without_iter_loads(self):
        # Pickle has no incremental decode: a compact block is one chunk.
        records = make_fastq(5)
        part = self._lazy(records, serializer=CompactSerializer())
        assert list(part) == records
        assert [len(b) for b in part.batches(2)] == [5]


class TestPartitionChain:
    def _chain(self, *parts):
        serializer = GpfSerializer()
        views = []
        for part in parts:
            blob, _ = encode_partition(part, serializer)
            views.append(decode_partition(blob, serializer))
        return PartitionChain(views)

    def test_concatenation(self):
        a, b = make_fastq(3), make_fastq(2)
        chain = self._chain(a, b)
        assert list(chain) == a + b
        assert len(chain) == 5
        assert chain[3] == b[0]
        assert chain[0:2] == a[0:2]

    def test_empty(self):
        chain = self._chain()
        assert not chain
        assert len(chain) == 0
        assert list(chain) == []

    def test_batches_span_parts(self):
        chain = self._chain(make_fastq(4), make_fastq(4))
        assert sum(len(b) for b in chain.batches(3)) == 8


class TestIterRecordBatches:
    def test_list_is_sliced(self):
        batches = list(iter_record_batches(list(range(10)), 4))
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_generator_is_accumulated(self):
        batches = list(iter_record_batches((x for x in range(5)), 2))
        assert batches == [[0, 1], [2, 3], [4]]

    def test_lazy_partition_streams(self):
        serializer = GpfSerializer()
        blob, _ = encode_partition(make_fastq(7), serializer)
        part = decode_partition(blob, serializer)
        assert [len(b) for b in iter_record_batches(part, 3)] == [3, 3, 1]


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
