"""Both serializers round-trip seeded generated partitions exactly.

Every partition kind the engine stores (FASTQ records, SAM records, FASTQ
pairs, keyed SAM, non-genomic values, empty partitions) is drawn from a
stdlib ``random.Random`` seed.  Some partitions carry one record the §4.1
codec refuses (an IUPAC code, a lowercase base, an ``N`` with a real
quality); the gpf serializer must store those through its pickle
fallback (``F``).  ``dumps`` -> ``loads``/``loads_many`` must return the
input, a stored block (the serializer's bytes) must decode to a list,
and a block in an older payload format must be refused, never decoded
into something else.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.engine.blockmanager import read_block_file, write_block_file
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.serializers import get_serializer
from repro.formats.cigar import Cigar
from repro.formats.fastq import FastqPair, FastqRecord
from repro.formats.sam import UNMAPPED_POS, SamRecord
from tests.engine.journaled import partition_files, run_journaled

SERIALIZERS = ("gpf", "compact")
SEEDS = range(6)
#: Phred 2..40: every quality but the Phred-0 marker ``!`` a codec N carries.
QUALITIES = "".join(chr(q) for q in range(35, 74))


def gen_bases(rng: random.Random) -> tuple[str, str]:
    """Sequence and quality the codec accepts: ACGT, and N only with ``!``."""
    seq, qual = [], []
    for _ in range(rng.randint(1, 120)):
        if rng.random() < 0.03:
            seq.append("N")
            qual.append("!")
        else:
            seq.append(rng.choice("ACGT"))
            qual.append(rng.choice(QUALITIES))
    return "".join(seq), "".join(qual)


def refused_bases(rng: random.Random) -> tuple[str, str]:
    """One base the codec cannot round-trip: IUPAC, lowercase, or N with
    a real quality."""
    seq, qual = gen_bases(rng)
    i = rng.randrange(len(seq))
    base, q = rng.choice(
        [(rng.choice("RYKMSWBDHV"), "I"), (rng.choice("acgt"), "I"), ("N", "5")]
    )
    return seq[:i] + base + seq[i + 1 :], qual[:i] + q + qual[i + 1 :]


def gen_fastq(rng: random.Random, name: str, refused: bool = False) -> FastqRecord:
    seq, qual = refused_bases(rng) if refused else gen_bases(rng)
    return FastqRecord(name, seq, qual)


def gen_sam(rng: random.Random, name: str, refused: bool = False) -> SamRecord:
    seq, qual = refused_bases(rng) if refused else gen_bases(rng)
    if rng.random() < 0.1:
        return SamRecord(
            name, 4, "*", UNMAPPED_POS, 0, Cigar.parse("*"), "*", -1, 0, seq, qual
        )
    tags: dict[str, object] = {"NM": rng.randint(0, 5)}
    if rng.random() < 0.5:
        tags["RG"] = rng.choice(["lane1", "lane2"])
    return SamRecord(
        name,
        rng.choice([0, 16, 99, 147, 1024 | 99]),
        rng.choice(["chr1", "chr2"]),
        rng.randint(0, 50_000),
        rng.randint(0, 60),
        Cigar.parse(f"{len(seq)}M"),
        "=",
        rng.randint(0, 50_000),
        rng.randint(-500, 500),
        seq,
        qual,
        tags,
    )


def gen_partition(kind: str, rng: random.Random, refused: bool = False) -> list:
    """A partition of ``kind``; with ``refused``, one record the codec
    refuses sits at a random position."""
    n = rng.randint(1, 40)
    bad = rng.randrange(n) if refused else -1
    if kind == "fastq":
        return [gen_fastq(rng, f"r{i}", i == bad) for i in range(n)]
    if kind == "sam":
        return [gen_sam(rng, f"r{i}", i == bad) for i in range(n)]
    if kind == "pairs":
        return [
            FastqPair(gen_fastq(rng, f"p{i}/1", i == bad), gen_fastq(rng, f"p{i}/2"))
            for i in range(n)
        ]
    if kind == "keyed_sam":
        return [
            ((rng.choice(["chr1", "chr2"]), rng.randint(0, 99)), gen_sam(rng, f"r{i}", i == bad))
            for i in range(n)
        ]
    return [
        rng.choice([rng.randint(-9, 9), f"s{i}", (i, [i, None]), {"k": i}])
        for i in range(n)
    ]


GENOMIC = {"fastq": b"Q", "sam": b"S", "pairs": b"P", "keyed_sam": b"K"}
KINDS = sorted(GENOMIC) + ["values"]


def cases():
    for seed in SEEDS:
        rng = random.Random(seed)
        for kind in KINDS:
            yield kind, False, gen_partition(kind, rng)
            if kind in GENOMIC:
                yield kind, True, gen_partition(kind, rng, refused=True)
        yield "empty", False, []


def expected_tag(name: str, kind: str, refused: bool) -> bytes:
    if name == "compact":
        return b"\x80"  # a bare pickle: its PROTO opcode
    if kind in GENOMIC and not refused:
        return GENOMIC[kind]
    return b"F"


@pytest.mark.parametrize("name", SERIALIZERS)
def test_dumps_then_loads_many_is_identity(name):
    serializer = get_serializer(name)
    partitions = [data for _, _, data in cases()]
    blobs = [serializer.dumps(data) for data in partitions]
    for (kind, refused, data), blob in zip(cases(), blobs):
        assert serializer.loads(blob) == data, (kind, refused)
        assert serializer.loads_many([blob, blob]) == data + data, (kind, refused)
    # Every kind, refused records and empty partitions in one call.
    assert serializer.loads_many(blobs) == [e for data in partitions for e in data]


@pytest.mark.parametrize("name", SERIALIZERS)
def test_block_then_decode_partition_is_identity(name, tmp_path):
    config = EngineConfig(serializer=name, spill_dir=str(tmp_path / "spill"))
    with GPFContext(config) as ctx:
        for kind, refused, data in cases():
            blob = ctx.serializer.dumps(data)
            if data:
                assert blob[:1] == expected_tag(name, kind, refused), (kind, refused)
            part = ctx._decode_block(blob)
            assert type(part) is list
            assert part == data, (kind, refused)


def prefixed_compact(blob: bytes) -> bytes:
    """The same block with the one-byte ``r`` prefix an older compact
    serializer put in front of its pickle payload."""
    if blob[:1] == b"F":
        return b"F" + b"r" + blob[1:]
    return b"r" + blob


@pytest.mark.parametrize("name", SERIALIZERS)
def test_old_compact_checkpoint_is_refused_and_recomputed(tmp_path, name):
    config = EngineConfig(
        default_parallelism=2, serializer=name, spill_dir=str(tmp_path / "spill")
    )
    jdir = str(tmp_path / "journal")
    expected = [(x, str(x)) for x in range(12)]
    with GPFContext(config) as ctx:
        run_journaled(ctx, jdir, range(12), lambda x: (x, str(x)))
        path = partition_files(jdir)[0]
        blob = read_block_file(path)
        with pytest.raises(pickle.UnpicklingError):
            ctx.serializer.loads(prefixed_compact(blob))
        write_block_file(path, prefixed_compact(blob))

        executed, out = run_journaled(ctx, jdir, range(12), lambda x: (x, str(x)))
        assert executed
        assert out.collect() == expected
        # The re-execution rewrote the checkpoint in the current format.
        assert read_block_file(path) == blob
