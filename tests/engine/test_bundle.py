"""Block format: a stored partition is exactly the serializer's bytes.

The gpf serializer's first byte names the codec that wrote the block
(``Q``/``S``/``P``/``K``, or ``F`` for its pickle fallback); the compact
serializer's block is a bare pickle.  A stored block is decoded to a
list by :meth:`PartitionStore._decode_block`, which charges the
``blockmanager.decode*`` telemetry.
"""

import pickle

import pytest

from repro.engine.context import EngineConfig, GPFContext, approx_logical_bytes
from repro.engine.serializers import CompactSerializer, GpfSerializer
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
    """A partition's compressed stored form: the serializer's bytes."""

    def test_codec_tag_records_fallback(self):
        blob = GpfSerializer().dumps([1, 2, 3])
        assert blob[:1] == b"F"

    def test_codec_tag_opaque_for_pickle(self):
        blob = CompactSerializer().dumps([1, 2, 3])
        assert blob == pickle.dumps([1, 2, 3], protocol=pickle.HIGHEST_PROTOCOL)

    def test_pair_partitions_use_pair_codec(self):
        records = make_fastq(8)
        pairs = [
            FastqPair(records[i], records[i + 1]) for i in range(0, 8, 2)
        ]
        blob = GpfSerializer().dumps(pairs)
        assert blob[:1] == b"P"
        assert GpfSerializer().loads(blob) == pairs

    @pytest.mark.parametrize(
        "blob", [b"not a bundle", b"", b"GPB2\x02"],
        ids=["no_magic", "empty", "short_header"],
    )
    def test_non_gpb2_blob_is_refused(self, blob):
        """Bytes no serializer wrote, a stale ``GPB2``-headed block
        among them, fail to decode instead of decoding to garbage."""
        with pytest.raises(ValueError, match="unknown gpf serializer frame tag"):
            GpfSerializer().loads(blob)

    def test_compression_ratio_over_one_for_genomic(self):
        records = make_fastq(100)
        blob = GpfSerializer().dumps(records)
        assert approx_logical_bytes(records) / len(blob) > 2.0


@pytest.fixture()
def store(tmp_path):
    """Builds one context per serializer name, stops them at teardown."""
    contexts = []

    def make(name: str = "gpf") -> GPFContext:
        config = EngineConfig(serializer=name, spill_dir=str(tmp_path / name))
        contexts.append(GPFContext(config))
        return contexts[-1]

    yield make
    for context in contexts:
        context.stop()


class TestDecodePartition:
    """A stored block decodes, in one call, to the partition's list."""

    @pytest.mark.parametrize("name", ["gpf", "compact"])
    def test_round_trips_to_a_list(self, store, name):
        ctx = store(name)
        records = make_fastq(20)
        part = ctx._decode_block(ctx.serializer.dumps(records))
        assert type(part) is list
        assert part == records

    def test_empty_partition(self, store):
        ctx = store()
        assert ctx._decode_block(ctx.serializer.dumps([])) == []

    def test_telemetry_counts_decode(self, store):
        ctx = store()
        ctx._decode_block(ctx.serializer.dumps(make_fastq(12)))
        snapshot = ctx.metrics.snapshot()
        assert snapshot["counters"]["blockmanager.decoded_records"] == 12
        assert snapshot["counters"]["blockmanager.decode_seconds"] > 0
        assert snapshot["histograms"]["blockmanager.decode_batch_seconds"]["count"] == 1


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


class TestRegionBundleLogicalBytes:
    def test_cached_bundle_partition_is_charged_its_records(self, tmp_path):
        from repro.compression.records import logical_size
        from repro.core.processes.regions import RegionBundle
        from repro.formats.cigar import Cigar
        from repro.formats.fasta import ReferenceWindow
        from repro.formats.vcf import VcfRecord

        sams = tuple(
            SamRecord(
                qname=f"q{i}", flag=0, rname="chr1", pos=i, mapq=60,
                cigar=Cigar.parse("8M"), rnext="*", pnext=-1, tlen=0,
                seq="ACGTACGT", qual="IIIIIIII",
            )
            for i in range(300)
        )
        site = VcfRecord("chr1", 5, "A", "G")
        window = ReferenceWindow("chr1", 0, "ACGT" * 100, 400)
        bundle = RegionBundle(0, "chr1", 0, 400, window, (sams,), (site,))
        expected = logical_size(sams) + 400 + (4 + 1 + 1 + 96)
        assert bundle.logical_bytes() == expected
        assert approx_logical_bytes([(0, bundle)]) == expected + 120

        config = EngineConfig(serializer="gpf", spill_dir=str(tmp_path))
        with GPFContext(config) as ctx:
            rdd = ctx.parallelize([(0, bundle)], 1).persist()
            rdd.collect()
            assert ctx.block_manager.stats.logical_bytes == expected + 120
