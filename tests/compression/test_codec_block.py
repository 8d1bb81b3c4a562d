"""Differential tests: the block codec against the per-record reference.

``reference_codec`` writes the batch layout a record at a time and
decodes it by tree walk.  Every codec here (FASTQ, SAM, keyed SAM,
FASTQ pairs, reference-based SAM) must write the reference's bytes byte
for byte and decode to the reference's records, alone and several
batches at once; corrupt input must raise ``ValueError`` and never
return data or hang.
"""

from __future__ import annotations

import hashlib
import pickle
import random
import signal
import struct
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.compression.huffman import EOF_SYMBOL, HuffmanCodec
from repro.compression.records import CodecUnsupportedError, FastqCodec, SamCodec
from repro.compression.refbased import RefBasedSamCodec
from repro.engine.serializers import get_serializer
from repro.formats.cigar import Cigar
from repro.formats.fastq import FastqPair, FastqRecord
from repro.formats.sam import SamRecord
from repro.sim.reads import ReadSimConfig, ReadSimulator
from repro.sim.reference import generate_reference
from tests.compression import reference_codec as ref

#: 512 and 513 sit on and across the codec's internal decode-pass size.
BLOCK_SIZES = [0, 1, 2, 7, 512, 513]


@contextmanager
def watchdog(seconds: int = 20):
    """Fail instead of hanging: a decode that loops trips SIGALRM."""

    def _timeout(signum, frame):
        raise TimeoutError("decode did not finish")

    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- generators -------------------------------------------------------------
def _quality(rng: random.Random, n: int) -> str:
    """Illumina-like: a drifting score in Phred 2..40, never the '!' marker."""
    q, out = rng.randint(25, 40), []
    for _ in range(n):
        q = min(40, max(2, q + rng.choice((-3, -1, 0, 0, 0, 1, 2))))
        out.append(chr(33 + q))
    return "".join(out)


def safe_read(rng: random.Random, i: int) -> FastqRecord:
    """A strict-safe read: ACGT, plus N runs carrying the mask quality."""
    n = rng.choice((0, 1, 3, 50, 101, 150)) if i % 5 else rng.randint(0, 160)
    seq = [rng.choice("ACGT") for _ in range(n)]
    qual = list(_quality(rng, n))
    if n > 10 and rng.random() < 0.3:
        start = rng.randrange(n - 5)
        for j in range(start, start + rng.randint(1, 5)):
            seq[j], qual[j] = "N", ref.MASK
    return FastqRecord(f"read{i}/{rng.randint(1, 2)}", "".join(seq), "".join(qual))


def lenient_read(rng: random.Random, i: int) -> FastqRecord:
    """IUPAC codes, lowercase bases and N with a real quality: lossy but legal."""
    rec = safe_read(rng, i)
    seq = list(rec.sequence)
    for j in range(len(seq)):
        if rng.random() < 0.05:
            seq[j] = rng.choice("NRYSWKMBDHVacgtn")
    return FastqRecord(rec.name, "".join(seq), rec.quality)


def as_sam(rec: FastqRecord, i: int, rng: random.Random) -> SamRecord:
    unmapped = i % 11 == 3
    seq, qual = ("", "") if i % 13 == 5 else (rec.sequence, rec.quality)
    tags: dict[str, object] = {"NM": rng.randint(0, 4), "AS": rng.randint(0, 150)}
    if i % 4 == 0:
        tags["MD"] = f"{rng.randint(1, 60)}A{rng.randint(1, 40)}"
    if i % 9 == 0:
        tags["XF"] = 0.25 * rng.randint(0, 8)
    return SamRecord(
        qname=rec.name,
        flag=4 if unmapped else rng.choice((99, 147, 83, 163, 1024 + 99)),
        rname="*" if unmapped else rng.choice(("chr1", "chr2")),
        pos=-1 if unmapped else rng.randint(0, 9000),
        mapq=0 if unmapped else rng.randint(0, 60),
        cigar=Cigar.parse(f"{len(seq)}M") if seq and not unmapped else Cigar(()),
        rnext="=",
        pnext=rng.randint(0, 9000),
        tlen=rng.randint(-500, 500),
        seq=seq,
        qual=qual,
        tags=tags,
    )


def fastq_block(n: int, seed: int, make=safe_read) -> list[FastqRecord]:
    rng = random.Random(seed)
    return [make(rng, i) for i in range(n)]


def sam_block(n: int, seed: int, make=safe_read) -> list[SamRecord]:
    rng = random.Random(seed)
    return [as_sam(make(rng, i), i, rng) for i in range(n)]


# -- byte-identical encode, record-identical decode ----------------------------
@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("strict", [True, False])
def test_fastq_matches_reference(n, strict):
    records = fastq_block(n, seed=n)
    blob = FastqCodec.encode(records, strict=strict)
    assert blob == ref.fastq_encode(records, strict=strict)
    assert FastqCodec.decode(blob) == ref.fastq_decode(blob)
    assert FastqCodec.decode_many([blob, blob]) == 2 * ref.fastq_decode(blob)


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("strict", [True, False])
def test_sam_matches_reference(n, strict):
    records = sam_block(n, seed=100 + n)
    blob = SamCodec.encode(records, strict=strict)
    assert blob == ref.sam_encode(records, strict=strict)
    assert SamCodec.decode(blob) == ref.sam_decode(blob)
    assert SamCodec.decode_many([blob, blob]) == 2 * ref.sam_decode(blob)
    if strict:
        assert SamCodec.decode(blob) == records


@pytest.mark.parametrize("n", [1, 7, 513])
def test_lenient_iupac_and_lowercase_match_reference(n):
    reads = fastq_block(n, seed=7 * n, make=lenient_read)
    blob = FastqCodec.encode(reads)
    assert blob == ref.fastq_encode(reads)
    assert FastqCodec.decode(blob) == ref.fastq_decode(blob)
    sams = sam_block(n, seed=7 * n, make=lenient_read)
    blob = SamCodec.encode(sams)
    assert blob == ref.sam_encode(sams)
    assert SamCodec.decode(blob) == ref.sam_decode(blob)


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_strict_refusals_match_reference(n):
    """Same refusals as the reference, block for block, on mixed input."""
    rng = random.Random(n)
    for trial in range(4):
        reads = fastq_block(n, seed=1000 * trial + n, make=lenient_read)
        sams = [as_sam(r, i, rng) for i, r in enumerate(reads)]
        for encode, reference, records in (
            (FastqCodec.encode, ref.fastq_encode, reads),
            (SamCodec.encode, ref.sam_encode, sams),
        ):
            try:
                expected = reference(records, strict=True)
            except ref.Unsupported:
                with pytest.raises(CodecUnsupportedError):
                    encode(records, strict=True)
            else:
                assert encode(records, strict=True) == expected


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_pairs_and_keyed_sam_through_serializer(n):
    gpf = get_serializer("gpf")
    reads = fastq_block(2 * n, seed=300 + n)
    pairs = [FastqPair(a, b) for a, b in zip(reads[::2], reads[1::2])]
    blob = gpf.dumps(pairs)
    if n:
        assert blob == b"P" + ref.fastq_encode(reads, strict=True)
    sams = sam_block(n, seed=400 + n)
    keyed = [((rec.rname, rec.pos, i), rec) for i, rec in enumerate(sams)]
    keyed_blob = gpf.dumps(keyed)
    if n:
        keys = pickle.dumps([k for k, _ in keyed], protocol=pickle.HIGHEST_PROTOCOL)
        assert keyed_blob == (
            b"K" + struct.pack("<I", len(keys)) + keys + ref.sam_encode(sams, strict=True)
        )
    assert gpf.loads(blob) == pairs and gpf.loads(keyed_blob) == keyed
    assert gpf.loads_many([blob, blob]) == 2 * pairs
    assert gpf.loads_many([keyed_blob, keyed_blob]) == 2 * keyed


@pytest.mark.parametrize("n", [0, 1, 7, 120])
def test_refbased_matches_reference(n):
    reference = generate_reference({"chr1": 3000, "chr2": 2000}, seed=n)
    rng = random.Random(n)
    records = []
    for i, read in enumerate(fastq_block(n, seed=500 + n, make=lenient_read)):
        rec = as_sam(read, i, rng)
        if rec.seq and not rec.is_unmapped:
            contig = reference[rec.rname].sequence
            pos = rng.randrange(len(contig) - len(rec.seq))
            bases = list(bytes(contig[pos : pos + len(rec.seq)]).decode())
            for j, base in enumerate(rec.seq):  # read-side N/IUPAC, a few mismatches
                if base not in "ACGT":
                    bases[j] = base
                elif rng.random() < 0.02:
                    bases[j] = rng.choice("ACGT")
            rec.seq, rec.pos = "".join(bases), pos
        records.append(rec)
    codec = RefBasedSamCodec(reference)
    blob = codec.encode(records)
    assert blob == ref.refbased_encode(records, reference)
    assert codec.decode(blob) == ref.refbased_decode(blob, reference)


# -- alphabets at the edges ---------------------------------------------------
def _fibonacci(n: int) -> list[int]:
    """1, 2, 3, 5, ...: with the EOF's count of 1 the Huffman tree is a chain."""
    out = [1, 2]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return out[:n]


@pytest.mark.parametrize(
    "weights, longest",
    [(_fibonacci(30), 20), ([2**i for i in range(46)], 40)],
    ids=["fibonacci", "powers-of-two"],
)
def test_skewed_frequencies_force_long_codes(weights, longest):
    """Codes longer than the decode table, and than 20 (40) bits, round-trip."""
    freqs = {s - 20: f for s, f in enumerate(weights)}
    codec = HuffmanCodec.from_frequencies(freqs)
    oracle = ref.RefHuffman.from_frequencies(freqs)
    assert codec.code_lengths() == oracle.lengths
    assert max(codec.code_lengths().values()) > longest
    rng = random.Random(5)
    streams = [[rng.choice(sorted(freqs)) for _ in range(rng.randint(0, 40))] for _ in range(30)]
    blobs = codec.encode_many(streams)
    assert blobs == [oracle.encode(s) for s in streams]
    symbols, counts = codec.decode_many(blobs)
    assert counts.tolist() == [len(s) for s in streams]
    assert symbols.tolist() == [x for s in streams for x in s]


def test_fibonacci_skewed_qualities_through_record_codec():
    """A block whose quality deltas follow Fibonacci counts: codes > 20 bits.

    Each excursion climbs +d in one step and walks back in -1 steps, so
    +d occurs exactly as often as its excursion does.
    """
    rng = random.Random(3)
    excursions = [
        d for d, count in enumerate(reversed(_fibonacci(22)), start=1) for _ in range(count)
    ]
    rng.shuffle(excursions)
    records, qual = [], [40]
    for i, d in enumerate(excursions):
        qual += range(40 + d, 39, -1)
        if len(qual) >= 100 or i == len(excursions) - 1:
            text = "".join(map(chr, qual))
            seq = "".join(rng.choice("ACGT") for _ in text)
            records.append(FastqRecord(f"f{len(records)}", seq, text))
            qual = [40]
    blob = FastqCodec.encode(records, strict=True)
    (table_len,) = struct.unpack_from("<I", blob, 4)
    table = ref._read_table(blob[8 : 8 + table_len])
    assert max(table.values()) > 20
    assert blob == ref.fastq_encode(records, strict=True)
    assert FastqCodec.decode(blob) == records


# -- corrupt streams ------------------------------------------------------------
def _stream_length(blob: bytes) -> tuple[int, str]:
    """Offset and struct format of a one-record FASTQ batch's quality-stream
    length: the third length column, after the name and read lengths."""
    (table_len,) = struct.unpack_from("<I", blob, 4)
    width = blob[8 + table_len]
    return 8 + table_len + 1 + 2 * width, {1: "<B", 2: "<H", 4: "<I"}[width]


def _split_last_field(blob: bytes) -> tuple[bytes, bytes]:
    """A one-record FASTQ batch as (everything before its quality stream,
    the quality stream): the stream is the last byte column."""
    at, fmt = _stream_length(blob)
    (stream_len,) = struct.unpack_from(fmt, blob, at)
    return blob[: len(blob) - stream_len], blob[len(blob) - stream_len :]


def _with_quality(prefix: bytes, qual_blob: bytes) -> bytes:
    at, fmt = _stream_length(prefix)
    return prefix[:at] + struct.pack(fmt, len(qual_blob)) + prefix[at + struct.calcsize(fmt) :] + qual_blob


def _table_codes(lengths: dict[int, int]) -> dict[int, list[int]]:
    return ref.RefHuffman(lengths).codes


READ = FastqRecord("r", "ACGTTGCAAC" * 6, "IIIHHHGGFFIIIHHHGGFF#IIHHHGGFF" * 2)


def test_truncated_quality_blob_raises():
    prefix, qual_blob = _split_last_field(FastqCodec.encode([READ], strict=True))
    for cut in range(len(qual_blob)):
        with watchdog(), pytest.raises(ValueError):
            FastqCodec.decode(_with_quality(prefix, qual_blob[:cut]))


def test_truncated_batch_raises():
    blob = SamCodec.encode(sam_block(9, seed=2), strict=True)
    for cut in range(len(blob)):
        with watchdog():
            try:
                out = SamCodec.decode(blob[:cut])
            except ValueError:
                continue
        pytest.fail(f"truncated batch (cut {cut}) decoded to {len(out)} records")


def test_missing_eof_raises():
    prefix, qual_blob = _split_last_field(FastqCodec.encode([READ], strict=True))
    (table_len,) = struct.unpack_from("<I", prefix, 4)
    codes = _table_codes(ref._read_table(prefix[8 : 8 + table_len]))
    deltas = ref.delta_encode(READ.quality).tolist()
    bits = [b for d in deltas for b in codes[d]]
    bits += [0] * (-len(bits) % 8)
    no_eof = bytes(
        int("".join(map(str, bits[i : i + 8])), 2) for i in range(0, len(bits), 8)
    )
    with watchdog(), pytest.raises(ValueError):
        FastqCodec.decode(_with_quality(prefix, no_eof))
    with pytest.raises(ValueError):
        HuffmanCodec(ref._read_table(prefix[8 : 8 + table_len])).decode(no_eof)


def test_flipped_bits_raise_or_match_reference():
    """Every single-bit flip of a quality stream: the table-driven decoder
    raises exactly where the tree walk does and agrees everywhere else;
    through the record codec a flip that changes the symbol count raises."""
    prefix, qual_blob = _split_last_field(FastqCodec.encode([READ], strict=True))
    (table_len,) = struct.unpack_from("<I", prefix, 4)
    lengths = ref._read_table(prefix[8 : 8 + table_len])
    codec, oracle = HuffmanCodec(lengths), ref.RefHuffman(lengths)
    raised = 0
    for bit in range(8 * len(qual_blob)):
        flipped = bytearray(qual_blob)
        flipped[bit >> 3] ^= 0x80 >> (bit & 7)
        flipped = bytes(flipped)
        try:
            expected = oracle.decode(flipped)
        except ValueError:
            expected = None
        with watchdog():
            if expected is None:
                with pytest.raises(ValueError):
                    codec.decode(flipped)
            else:
                assert codec.decode(flipped).tolist() == expected
            try:
                [out] = FastqCodec.decode(_with_quality(prefix, flipped))
            except ValueError:
                raised += 1
                continue
        assert expected is not None and len(expected) == len(READ.quality)
        assert out.quality == ref.delta_decode(expected)
    assert raised > 0


def test_kraft_breaking_table_raises():
    with pytest.raises(ValueError, match="Kraft"):
        HuffmanCodec({EOF_SYMBOL: 1, 5: 1, 7: 1})
    blob = FastqCodec.encode([READ], strict=True)
    (table_len,) = struct.unpack_from("<I", blob, 4)
    lengths = ref._read_table(blob[8 : 8 + table_len])
    broken = {s: max(1, l - 1) for s, l in lengths.items()}
    table = ",".join(f"{s}:{l}" for s, l in sorted(broken.items())).encode()
    bad = blob[:4] + struct.pack("<I", len(table)) + table + blob[8 + table_len :]
    with watchdog(), pytest.raises(ValueError):
        FastqCodec.decode(bad)


def test_a_per_record_layout_sam_batch_is_refused():
    """A SAM batch in the layout this codec replaced, one frame per record
    (committed from that codec's output: 6 records of ``sam_block(6,
    seed=37)``), fails typed and never decodes to records.  A block on
    disk in that layout is a corrupt block: it is recomputed."""
    blob = (Path(__file__).parent / "data" / "per_record_layout_sam.bin").read_bytes()
    assert SamCodec.record_count(blob) == 6
    with watchdog(), pytest.raises(ValueError):
        SamCodec.decode(blob)
    with watchdog(), pytest.raises(ValueError):
        get_serializer("gpf").loads(b"S" + blob)


# -- pinned payload digest ------------------------------------------------------
#: sha256 over FASTQ and SAM payloads of one simulated batch of 800 reads,
#: encoded in blocks of 1, 13, 100 and 800 records: the column layout's
#: bytes, which the reference codec writes too.  Any change to the batch
#: layout moves it.
SIM_DIGEST = "8e2c4925b39b2647479f2da9422d09b8090d1c9f4b3961d1cbd944eb10baa258"


def sim_batch() -> tuple[list[FastqRecord], list[SamRecord]]:
    reference = generate_reference([6000], seed=11)
    pairs = ReadSimulator(reference, ReadSimConfig(coverage=30, seed=12)).simulate()
    reads = [read for pair in pairs for read in pair][:800]
    for i in range(0, len(reads), 9):  # N runs: masked (lenient) or marker quality
        rec = reads[i]
        n = 3 + i % 5
        qual = rec.quality[:20] + (ref.MASK * n if i % 2 else rec.quality[20 : 20 + n])
        reads[i] = FastqRecord(
            rec.name,
            rec.sequence[:20] + "N" * n + rec.sequence[20 + n :],
            qual + rec.quality[20 + n :],
        )
    sams = [
        SamRecord(
            qname=rec.name,
            flag=99 if i % 2 else 147,
            rname="chr1",
            pos=(37 * i) % 5900,
            mapq=i % 61,
            cigar=Cigar.parse(f"{len(rec)}M"),
            rnext="=",
            pnext=(41 * i) % 5900,
            tlen=(-1) ** i * (250 + i % 50),
            seq=rec.sequence,
            qual=rec.quality,
            tags={"NM": i % 4, "RG": "sim"},
        )
        for i, rec in enumerate(reads)
    ]
    return reads, sams


def test_sim_batch_digest_is_pinned():
    reads, sams = sim_batch()
    digest = hashlib.sha256()
    for size in (1, 13, 100, 800):
        for start in range(0, len(reads), size):
            digest.update(FastqCodec.encode(reads[start : start + size]))
            digest.update(SamCodec.encode(sams[start : start + size]))
    assert digest.hexdigest() == SIM_DIGEST
