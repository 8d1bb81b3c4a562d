import pickle

import pytest

from repro.compression.records import FastqCodec
from repro.engine.serializers import (
    CompactSerializer,
    GpfSerializer,
    get_serializer,
)
from repro.formats.cigar import Cigar
from repro.formats.fastq import FastqRecord
from repro.formats.sam import SamRecord


def fastq_batch(n=20):
    import numpy as np

    rng = np.random.default_rng(7)
    return [
        FastqRecord(
            f"r{i}",
            "".join(rng.choice(list("ACGT"), size=100)),
            "".join(chr(int(q)) for q in rng.integers(35, 74, size=100)),
        )
        for i in range(n)
    ]


def sam_batch(n=20):
    return [
        SamRecord(f"r{i}", 0, "chr1", i, 60, Cigar.parse("100M"), "*", -1, 0,
                  "ACGT" * 25, "I" * 100, {"NM": 0})
        for i in range(n)
    ]


class TestRegistry:
    @pytest.mark.parametrize("name,cls", [
        ("compact", CompactSerializer),
        ("gpf", GpfSerializer),
    ])
    def test_lookup(self, name, cls):
        assert isinstance(get_serializer(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown serializer"):
            get_serializer("java")


class TestRoundTrips:
    @pytest.mark.parametrize("name", ["compact", "gpf"])
    def test_generic_objects(self, name):
        s = get_serializer(name)
        data = [1, "two", (3, [4, 5]), {"k": "v"}, None]
        assert s.loads(s.dumps(data)) == data

    @pytest.mark.parametrize("name", ["compact", "gpf"])
    def test_empty_partition(self, name):
        s = get_serializer(name)
        assert s.loads(s.dumps([])) == []

    def test_gpf_fastq_roundtrip(self):
        s = GpfSerializer()
        batch = fastq_batch()
        out = s.loads(s.dumps(batch))
        assert [r.sequence for r in out] == [r.sequence for r in batch]

    def test_gpf_sam_roundtrip(self):
        s = GpfSerializer()
        batch = sam_batch()
        assert s.loads(s.dumps(batch)) == batch

    def test_gpf_keyed_sam_roundtrip(self):
        s = GpfSerializer()
        pairs = [((rec.rname, rec.pos), rec) for rec in sam_batch()]
        assert s.loads(s.dumps(pairs)) == pairs

    def test_gpf_mixed_partition_falls_back(self):
        s = GpfSerializer()
        data = [fastq_batch(1)[0], "not a record"]
        out = s.loads(s.dumps(data))
        assert out[1] == "not a record"


class TestSizes:
    def test_gpf_beats_pickle_on_fastq(self):
        batch = fastq_batch(100)
        gpf = len(GpfSerializer().dumps(batch))
        # Protocol-2 pickle: the Java-serialization stand-in.
        java = len(pickle.dumps(batch, protocol=2))
        assert gpf < java

    def test_gpf_beats_compact_on_sam(self):
        # zlib on pickled object graphs can't see the genomic structure.
        import numpy as np
        from repro.sim.qualities import ILLUMINA_HISEQ

        rng = np.random.default_rng(0)
        batch = []
        for i in range(100):
            seq = "".join(rng.choice(list("ACGT"), size=100))
            batch.append(
                SamRecord(f"r{i}", 0, "chr1", i * 7, 60, Cigar.parse("100M"),
                          "*", -1, 0, seq, ILLUMINA_HISEQ.sample(100, rng), {})
            )
        gpf = len(GpfSerializer().dumps(batch))
        compact = len(CompactSerializer().dumps(batch))
        assert gpf < compact

    def test_compact_beats_pickle(self):
        # Byte payloads show the old protocol's framing overhead clearly.
        data = [bytes([i % 256]) * 60 for i in range(300)]
        assert len(CompactSerializer().dumps(data)) < len(pickle.dumps(data, protocol=2))
