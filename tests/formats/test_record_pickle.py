"""Records cross pickle and ``copy()`` without dataclass reflection.

``SamRecord``, ``FastqRecord``, ``FastqPair`` and ``VcfRecord`` pickle as
one constructor call, and a ``Cigar`` as its text.  Over seeded generated
records (mapped and unmapped, ``*``, clipped and indel CIGARs, ``i``/``f``/
``Z``/``A`` tags) every boundary a record crosses must give back an equal
record of the same type: pickle protocols 2-5, the compact serializer, a
gpf ``F`` (pickle fallback) frame, and closure shipping.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.dist.shipping import ship_dumps, ship_loads
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.serializers import CompactSerializer, GpfSerializer
from repro.formats.cigar import Cigar
from repro.formats.fastq import FastqPair, FastqRecord
from repro.formats.sam import UNMAPPED_POS, SamRecord
from repro.formats.vcf import VcfRecord

SEEDS = range(4)
CIGARS = ("*", "76M", "5S71M", "3H2S60M11S", "30M2I44M", "20M3D56M", "10S30M2D36M4H")


def gen_sam(rng: random.Random, i: int) -> SamRecord:
    unmapped = rng.random() < 0.2
    seq = "".join(rng.choice("ACGTN") for _ in range(rng.randint(0, 80)))
    tags: dict[str, object] = {}
    if rng.random() < 0.8:
        tags["NM"] = rng.randint(0, 9)  # i
    if rng.random() < 0.5:
        tags["XS"] = rng.random() * 100  # f
    if rng.random() < 0.5:
        tags["RG"] = rng.choice(["s1", "lane-2"])  # Z
    if rng.random() < 0.5:
        tags["XT"] = rng.choice("URM")  # A
    return SamRecord(
        qname=f"read{i}",
        flag=rng.choice([4, 77, 141]) if unmapped else rng.choice([0, 16, 99, 147, 1024 + 83]),
        rname="*" if unmapped else rng.choice(["chr1", "chr2"]),
        pos=UNMAPPED_POS if unmapped else rng.randint(0, 50_000),
        mapq=0 if unmapped else rng.randint(0, 60),
        cigar=Cigar.parse("*" if unmapped else rng.choice(CIGARS)),
        rnext=rng.choice(["*", "=", "chr2"]),
        pnext=rng.choice([UNMAPPED_POS, rng.randint(0, 50_000)]),
        tlen=rng.randint(-600, 600),
        seq=seq,
        qual="".join(chr(rng.randint(35, 73)) for _ in seq),
        tags=tags,
    )


def gen_records(seed: int) -> list:
    rng = random.Random(seed)
    sams = [gen_sam(rng, i) for i in range(40)]
    reads = [
        FastqRecord(f"r{i}", "ACGT" * (i % 5), "I" * 4 * (i % 5)) for i in range(10)
    ]
    pairs = [FastqPair(reads[i], reads[i + 1]) for i in range(0, 10, 2)]
    vcfs = [
        VcfRecord("chr1", 10 * i, "A", "T", qual=rng.random() * 50, info={"DP": i}, depth=i)
        for i in range(5)
    ]
    return sams + reads + pairs + vcfs


def assert_same(got: list, want: list) -> None:
    assert got == want
    assert [type(g) for g in got] == [type(w) for w in want]
    for g, w in zip(got, want):
        if isinstance(w, VcfRecord):  # info is not part of VcfRecord equality
            assert g.info == w.info


@pytest.fixture()
def ctx(tmp_path):
    context = GPFContext(EngineConfig(spill_dir=str(tmp_path / "spill")))
    yield context
    context.stop()


class TestRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_pickle_protocols(self, seed, protocol):
        records = gen_records(seed)
        assert_same(pickle.loads(pickle.dumps(records, protocol=protocol)), records)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_compact_serializer(self, seed):
        records = gen_records(seed)
        serializer = CompactSerializer()
        assert_same(serializer.loads(serializer.dumps(records)), records)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gpf_fallback_frame(self, seed):
        records = gen_records(seed)  # mixed types: the whole partition pickles
        serializer = GpfSerializer()
        blob = serializer.dumps(records)
        assert blob[:1] == b"F"
        assert_same(serializer.loads(blob), records)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shipping(self, seed, ctx):
        records = gen_records(seed)
        assert_same(ship_loads(ship_dumps(records, ctx), ctx), records)

    def test_repeated_record_stays_one_object(self):
        rec = gen_sam(random.Random(0), 0)
        first, second = pickle.loads(pickle.dumps([rec, rec]))
        assert first is second


class TestCopy:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_copy_is_independent(self, seed):
        for rec in gen_records(seed)[:40]:
            before = pickle.dumps(rec)
            dup = rec.copy()
            assert dup == rec and dup is not rec
            dup.flag ^= 1024
            dup.tags["ZZ"] = 1
            dup.cigar = Cigar.parse("1M")
            dup.pos += 1
            assert pickle.dumps(rec) == before


class TestCigarInterning:
    @pytest.mark.parametrize("text", CIGARS)
    def test_text_round_trip_and_identity(self, text):
        assert str(Cigar.parse(text)) == text
        assert Cigar.parse(text) is Cigar.parse(text)

    def test_built_cigar_equals_parsed(self):
        built = Cigar.from_pairs([(5, "S"), (30, "M"), (2, "I"), (44, "M")])
        assert built == Cigar.parse("5S30M2I44M")
        assert hash(built) == hash(Cigar.parse("5S30M2I44M"))
        assert str(built) == "5S30M2I44M"

    def test_unpickles_to_interned(self):
        cigar = Cigar.parse("20M3D56M")
        assert pickle.loads(pickle.dumps(cigar)) is cigar

    def test_non_canonical_text_renders_canonical(self):
        assert str(Cigar.parse("010M")) == "10M"
        assert str(Cigar.parse("")) == "*"


def test_pickling_records_never_walks_dataclass_fields(monkeypatch):
    calls = []
    real_fields = dataclasses.fields

    def counting_fields(obj):
        calls.append(type(obj).__name__)
        return real_fields(obj)

    rng = random.Random(1)
    records = [gen_sam(rng, i) for i in range(100)]
    assert sum(len(rec.cigar) for rec in records) > 100
    monkeypatch.setattr(dataclasses, "fields", counting_fields)
    blob = pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)
    restored = pickle.loads(blob)
    copies = [rec.copy() for rec in records]
    assert calls == []
    assert restored == records == copies
