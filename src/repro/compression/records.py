"""Whole-record codecs for FASTQ and SAM record batches.

GPF stores each RDD partition as one large byte array (paper §4.2).  A
batch codec therefore takes a *list* of records and produces a single
``bytes`` blob:

- the Sequence field is 2-bit packed (``twobit``),
- the Quality field is delta-transformed and Huffman-coded with one codec
  built per encode pass (``delta`` + ``huffman``),
- all remaining fields are stored verbatim — the paper is explicit that
  SAM's other fields are *not* compressed, which is why SAM batches
  compress less than FASTQ batches (Table 3).

A batch is laid out by column: each field is written and read with one
call per batch (or decode pass), never per record.

The unit of work is a task, not a batch.  ``encode_groups`` runs one
encode pass over several record groups (a map task's shuffle buckets)
and writes each group as a standalone batch behind the one shared
table; ``decode_many`` decodes several batches into one record list,
Huffman-decoding qualities in passes that run across batch boundaries,
each record with its own batch's table (``huffman.decode_streams``).
``encode`` and ``decode`` are their one-batch case.

Binary layout of a batch of ``n`` records::

    [u32 n][u32 table_len][huffman code-length table as 'sym:len,...' ascii]
    [u8 width]
    [uint x n] per length column   (width bytes each, little-endian)
    [i64 x n] per integer column   (SAM only)
    one section per byte column, each record's bytes back to back

All numbers are little-endian, and each column's values follow one
another.  ``width`` is 1, 2 or 4: the narrowest that holds the batch's
largest length.

FASTQ's length columns are the name's utf-8 bytes, the read length and
the quality stream's bytes; its byte columns are the names, the packed
bases (one 2-bit run for the batch) and the quality streams.  SAM adds
the utf-8 bytes of RNAME, RNEXT and the CIGAR text after QNAME, the
integer columns FLAG, POS, MAPQ, PNEXT and TLEN, and, last, the tags as
one pickled list of the records' tag dicts, so a tag value keeps its
exact Python type.  A SAM record without SEQ has read length 0.
"""

from __future__ import annotations

import pickle
import struct
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.compression.delta import delta_decode_block, delta_encode_block
from repro.compression.huffman import HuffmanCodec, decode_streams
from repro.compression.twobit import (
    MASK_QUAL_CHAR,
    _ENCODE_LUT,
    compress_block,
    decompress_block,
)
from repro.formats.cigar import Cigar
from repro.formats.fastq import FastqRecord
from repro.formats.sam import SamRecord

#: Records per decode pass: large enough to amortize a pass's fixed NumPy
#: calls, small enough to bound its Huffman decode scratch.
_PASS_SIZE = 512

_MASK = ord(MASK_QUAL_CHAR)
_HEADER = struct.Struct("<II")


class CodecUnsupportedError(ValueError):
    """A record cannot round-trip byte-identically through the §4.1 codec.

    Raised by ``encode(..., strict=True)`` for records the 2-bit + mask
    transform would alter: lowercase or IUPAC ambiguity codes (decoded as
    ``N``), an ``N`` whose quality is not already the Phred-0 marker (its
    real quality would be clobbered), a real ACGT base carrying the
    reserved Phred-0 score (the mask would be ambiguous), or a SAM QUAL
    without a SEQ (the codec stores qualities only beside bases).  A SAM
    integer field that is not an ``int`` is refused too: its column would
    not give back its type.  The serializer layer catches this and falls
    back to pickle for the whole block.
    """


def roundtrip_safe(sequence: str, quality: str) -> bool:
    """True when (sequence, quality) survive the codec byte-identically.

    Exactly the records the mask transform leaves untouched: every base
    is ACGT (quality anything but the reserved ``!``) or an ``N`` whose
    quality is *already* the Phred-0 marker.
    """
    try:
        _block_arrays([sequence], [quality], strict=True)
    except CodecUnsupportedError:
        return False
    return True


def _split(text: str, lengths: Sequence[int]) -> list[str]:
    bounds = np.cumsum(lengths).tolist()
    return [text[a:b] for a, b in zip([0] + bounds, bounds)]


def _bounds(lengths) -> np.ndarray:
    """Offsets of records of ``lengths`` laid end to end: ``n + 1`` of them."""
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def _block_arrays(seqs: list, quals: list, strict: bool) -> tuple[np.ndarray, ...]:
    """A block's bases and qualities as one ASCII ``uint8`` array each, and
    the per-record lengths.  ``strict`` refuses any record the mask would
    alter: a marked quality must sit on an ``N``, an unmarked one on ACGT."""
    lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
    if lengths.tolist() != list(map(len, quals)):
        refuse = CodecUnsupportedError if strict else ValueError
        raise refuse("sequence/quality length mismatch")
    seqs, quals = "".join(seqs), "".join(quals)
    if strict and not (seqs + quals).isascii():
        raise CodecUnsupportedError("non-ascii sequence or quality")
    seq = np.frombuffer(seqs.encode("ascii"), dtype=np.uint8)
    qual = np.frombuffer(quals.encode("ascii"), dtype=np.uint8).copy()
    marked = qual == _MASK
    if strict and np.where(marked, seq != ord("N"), _ENCODE_LUT[seq] == 255).any():
        raise CodecUnsupportedError(
            "ambiguity code, lowercase base, N with a real quality, or the "
            "Phred-0 marker on a real base would not round-trip"
        )
    return seq, qual, lengths


def _encode_qualities(qual: np.ndarray, lengths: np.ndarray) -> tuple:
    """One Huffman codec over a block's quality deltas (paper Fig. 5-6),
    each record's deltas its own stream: ``(table, streams back to back,
    each stream's bytes)``."""
    deltas = delta_encode_block(qual, lengths)
    hist = np.bincount(deltas + 255, minlength=511)
    present = hist.nonzero()[0]
    freqs = dict(zip((present - 255).tolist(), hist[present].tolist()))
    codec = HuffmanCodec.from_frequencies(freqs)
    table = ",".join(f"{s}:{l}" for s, l in sorted(codec.code_lengths().items()))
    return (table.encode("ascii"), *codec.encode_concat(deltas, lengths))


@lru_cache(maxsize=128)
def _table_codec(table: bytes) -> HuffmanCodec:
    """The codec a code-length table describes.  Interned: the blocks one
    map task writes share its table, so each distinct table is parsed
    (and its decode table built) once."""
    tokens = (token.split(":") for token in table.decode("ascii").split(","))
    return HuffmanCodec({int(symbol): int(length) for symbol, length in tokens})


def _text(values: list[str]) -> tuple[np.ndarray, bytes]:
    """A text column: each value's utf-8 byte length, and the bytes back to
    back.  Lone surrogates pass too, so every ``str`` round-trips."""
    joined = "".join(values)
    if joined.isascii():
        return np.fromiter(map(len, values), np.int64, len(values)), joined.encode("ascii")
    parts = [value.encode("utf-8", "surrogatepass") for value in values]
    return np.fromiter(map(len, parts), np.int64, len(parts)), b"".join(parts)


def _strings(pieces: list, lengths: np.ndarray) -> list[str]:
    """Inverse of :func:`_text`, over a column's pieces from several batches."""
    data = b"".join(pieces)
    if data.isascii():
        return _split(data.decode("ascii"), lengths.tolist())
    bounds = _bounds(lengths).tolist()
    return [data[a:b].decode("utf-8", "surrogatepass") for a, b in zip(bounds, bounds[1:])]


def _cut(data, lengths: np.ndarray, ends: np.ndarray) -> list:
    """``data``, records of byte ``lengths`` laid end to end, cut into the
    groups of records that end at ``ends``."""
    offsets = [0] + _bounds(lengths)[ends].tolist()
    return [data[a:b] for a, b in zip(offsets, offsets[1:])]


#: Width byte -> dtype of a batch's length columns.
_WIDTHS = {1: np.dtype("<u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4")}


def _batches(table: bytes, ends: np.ndarray, lengths: list, ints, sections: list) -> list[bytes]:
    """One standalone batch per group of records ending at ``ends``, all
    behind ``table``: the group's slice of each length column, at the
    narrowest width that holds its largest value, and of each integer
    column, then its piece of each byte column (``sections`` holds one
    list of pieces per column)."""
    lengths = np.stack(lengths)
    out = []
    for g, (a, b) in enumerate(zip([0] + ends.tolist(), ends.tolist())):
        top = int(lengths[:, a:b].max(initial=0))
        width = 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4
        parts = [_HEADER.pack(b - a, len(table)), table, bytes((width,))]
        parts.append(lengths[:, a:b].astype(_WIDTHS[width]).tobytes())
        parts.append(ints[:, a:b].tobytes())
        out.append(b"".join(parts + [pieces[g] for pieces in sections]))
    return out


def _encode(groups: Sequence[Sequence], strict: bool, fields, tail) -> list[bytes]:
    """Batches of record groups, all behind one table: ``fields(records,
    strict)`` gives the records' text columns, sequences, qualities and
    integer block, and ``tail(group)`` each group's last byte column."""
    records = [r for group in groups for r in group]
    ends = np.cumsum([len(group) for group in groups], dtype=np.int64)
    try:
        texts, seqs, quals, ints = fields(records, strict)
        texts = [_text(values) for values in texts]
    except (OverflowError, TypeError, ValueError) as exc:
        if strict:
            raise CodecUnsupportedError(f"a field would not round-trip: {exc}") from exc
        raise
    seq, qual, reads = _block_arrays(seqs, quals, strict)
    packed, runs = compress_block(seq, qual, np.diff(_bounds(reads)[ends], prepend=0))
    table, streams, nbytes = _encode_qualities(qual, reads)
    sections = [_cut(data, n, ends) for n, data in texts]
    sections += [[packed[a:b] for a, b in zip(runs, runs[1:])], _cut(streams, nbytes, ends)]
    sections.append([tail(group) for group in groups])
    return _batches(table, ends, [n for n, _ in texts] + [reads, nbytes], ints, sections)


class _Columns:
    """Batches opened for decoding: every record's length and integer
    columns (``lengths``, ``ints``), and each batch's piece of byte column
    ``i`` in ``pieces[i]``, sized by ``sizes(lengths)``; the last column is
    each batch's rest."""

    def __init__(self, blobs: Sequence, nlengths: int, nints: int, sizes) -> None:
        self.codecs: list[HuffmanCodec] = []
        lengths, ints = [np.zeros((nlengths, 0), np.int64)], [np.zeros((nints, 0), "<i8")]
        pieces = []
        for blob in blobs:
            data = memoryview(blob)
            try:
                count, table_len = _HEADER.unpack_from(data)
                off = _HEADER.size + table_len
                self.codecs.append(_table_codec(bytes(data[_HEADER.size : off])))
                lens = np.frombuffer(data, _WIDTHS[data[off]], nlengths * count, off + 1)
                off += 1 + lens.nbytes
                nums = np.frombuffer(data, "<i8", nints * count, off)
            except (struct.error, IndexError, KeyError, ValueError) as exc:
                raise ValueError(f"truncated or corrupt batch: {exc!r}") from exc
            lengths.append(lens.reshape(nlengths, count).astype(np.int64))
            ints.append(nums.reshape(nints, count))
            off += nums.nbytes
            cuts = np.cumsum([off, *sizes(lengths[-1])]).tolist()
            if cuts[-1] > len(data):
                raise ValueError("truncated batch")
            pieces.append([data[a:b] for a, b in zip(cuts, cuts[1:])] + [data[cuts[-1] :]])
        self.counts = [lens.shape[1] for lens in lengths[1:]]
        self.lengths = np.concatenate(lengths, axis=1)
        self.ints = np.concatenate(ints, axis=1)
        self.pieces = [list(col) for col in zip(*pieces)] or [[]] * (len(sizes(self.lengths)) + 1)

    def qualities(self, reads: np.ndarray, nbytes: np.ndarray, streams: list) -> np.ndarray:
        """Every record's masked quality, ASCII ``uint8`` end to end, from
        its read length and Huffman stream: decoded in passes of
        ``_PASS_SIZE`` records that run across batch boundaries, each
        record with its own batch's table."""
        owner = np.arange(len(self.counts)).repeat(self.counts)
        data = memoryview(b"".join(streams))
        bounds = _bounds(nbytes).tolist()
        out = [np.zeros(0, dtype=np.uint8)]
        for a in range(0, reads.size, _PASS_SIZE):
            b = min(a + _PASS_SIZE, reads.size)
            first, last = owner[a], owner[b - 1]
            codecs, streams = self.codecs[first : last + 1], data[bounds[a] : bounds[b]]
            deltas, counts = decode_streams(codecs, owner[a:b] - first, streams, nbytes[a:b])
            if not np.array_equal(counts, reads[a:b]):
                raise ValueError("sequence and quality lengths differ")
            out.append(delta_decode_block(deltas, counts))
        return np.concatenate(out)

    def bases(self, packed: list, qual: np.ndarray, reads: np.ndarray) -> np.ndarray:
        """The bases of each batch's 2-bit run, ASCII ``uint8`` end to end:
        ``reads`` are the run's read lengths (0 for a record outside it),
        ``qual`` their masked qualities."""
        runs = np.diff(_bounds(reads)[_bounds(self.counts)])
        return decompress_block(b"".join(packed), qual, runs)


def _decode(blobs: Sequence, ntexts: int, nints: int) -> tuple:
    """The batches of :func:`_encode` with ``ntexts`` text columns:
    ``(columns, texts, seqs, quals, each batch's last byte column)``."""
    cols = _Columns(blobs, ntexts + 2, nints, lambda lens: [
        *lens[:ntexts].sum(axis=1), (lens[ntexts].sum() + 3) >> 2, lens[ntexts + 1].sum()
    ])
    *texts, packed, streams, tail = cols.pieces
    reads, nbytes = cols.lengths[ntexts:]
    qual = cols.qualities(reads, nbytes, streams)
    seqs = _sequence_text(cols.bases(packed, qual, reads), reads)
    texts = [_strings(pieces, n) for pieces, n in zip(texts, cols.lengths)]
    return cols, texts, seqs, _sequence_text(qual, reads), tail


def _sequence_text(bases: np.ndarray, lengths: np.ndarray) -> list[str]:
    return _split(bases.tobytes().decode("ascii"), lengths.tolist())


class FastqCodec:
    """Batch codec for FASTQ records."""

    @staticmethod
    def encode_groups(
        groups: Sequence[Sequence[FastqRecord]], strict: bool = False
    ) -> list[bytes]:
        """Serialize each record group to one standalone batch (see module
        layout), all groups in one encode pass behind one shared table.

        With ``strict=True`` every record must round-trip byte-identically
        or :class:`CodecUnsupportedError` is raised before any output is
        produced (the serializer layer then falls back to pickle).
        """
        def fields(records: list, strict: bool) -> tuple:  # no integer column
            names, seqs = [[r.name for r in records]], [r.sequence for r in records]
            return names, seqs, [r.quality for r in records], np.zeros((0, len(records)), "<i8")

        return _encode(groups, strict, fields, lambda group: b"")

    @staticmethod
    def encode(records: Sequence[FastqRecord], strict: bool = False) -> bytes:
        """One batch for one record group: :meth:`encode_groups` of one."""
        return FastqCodec.encode_groups([records], strict)[0]

    @staticmethod
    def record_count(blob: bytes) -> int:
        """Record count from the batch header, without decoding."""
        if len(blob) < 4:
            raise ValueError("truncated batch")
        return int.from_bytes(blob[:4], "little")

    @staticmethod
    def decode_many(blobs: Sequence[bytes]) -> list[FastqRecord]:
        """The batches' records, in order, as one list."""
        _, (names,), seqs, quals, tail = _decode(blobs, 1, 0)
        if any(tail):
            raise ValueError("trailing bytes after a batch")
        return list(map(FastqRecord, names, seqs, quals))

    @staticmethod
    def decode(blob: bytes) -> list[FastqRecord]:
        """Inverse of :meth:`encode`."""
        return FastqCodec.decode_many([blob])


#: SAM's integer columns, in layout order.
_SAM_INTS = attrgetter("flag", "pos", "mapq", "pnext", "tlen")


def _sam_fields(records: list[SamRecord], strict: bool) -> tuple:
    """SAM's columns for :func:`_encode`: the text columns QNAME, RNAME,
    RNEXT and the CIGAR text, SEQ, QUAL (dropped without SEQ), and FLAG,
    POS, MAPQ, PNEXT and TLEN as one ``(5, n)`` ``<i8`` block.  ``strict``
    refuses an integer field that is not an ``int``."""
    values = list(map(_SAM_INTS, records))
    if strict and not set(map(type, chain.from_iterable(values))) <= {int}:
        raise TypeError("a SAM integer field is not an int")
    texts = [[r.qname for r in records], [r.rname for r in records], [r.rnext for r in records]]
    texts.append([str(r.cigar) for r in records])
    seqs, quals = [r.seq for r in records], [r.qual if r.seq else "" for r in records]
    return texts, seqs, quals, np.array(values, dtype="<i8").reshape(len(records), 5).T


def _sam_tags(records: Sequence[SamRecord]) -> bytes:
    return pickle.dumps([r.tags for r in records], protocol=pickle.HIGHEST_PROTOCOL)


def _sam_records(cols: _Columns, texts: list, seqs: list, quals: list, tags: list) -> list:
    """SAM records from decoded columns; ``tags`` is each batch's pickled
    tag column."""
    qnames, rnames, rnexts, cigars = texts
    tag_dicts: list = []
    for blob, count in zip(tags, cols.counts):
        try:
            batch = pickle.loads(blob)
        except Exception as exc:  # any unpickling failure is a corrupt batch
            raise ValueError(f"corrupt SAM tag column: {exc!r}") from exc
        if not isinstance(batch, list) or len(batch) != count:
            raise ValueError("corrupt SAM tag column")
        tag_dicts += batch
    flag, pos, mapq, pnext, tlen = cols.ints.tolist()
    return list(map(
        SamRecord, qnames, flag, rnames, pos, mapq, map(Cigar.parse, cigars), rnexts,
        pnext, tlen, seqs, quals, tag_dicts,
    ))


class SamCodec:
    """Batch codec for SAM records: seq/qual compressed, other fields
    stored verbatim by column."""

    @staticmethod
    def encode_groups(
        groups: Sequence[Sequence[SamRecord]], strict: bool = False
    ) -> list[bytes]:
        """Serialize each record group to one standalone batch (see module
        layout), all groups in one encode pass behind one shared table.

        ``strict=True`` raises :class:`CodecUnsupportedError` for records
        that would not round-trip byte-identically (see FastqCodec).
        Without it, a QUAL whose record has no SEQ is dropped.
        """
        if strict and any(r.qual and not r.seq for group in groups for r in group):
            raise CodecUnsupportedError("SAM record with QUAL but no SEQ")
        return _encode(groups, strict, _sam_fields, _sam_tags)

    @staticmethod
    def encode(records: Sequence[SamRecord], strict: bool = False) -> bytes:
        """One batch for one record group: :meth:`encode_groups` of one."""
        return SamCodec.encode_groups([records], strict)[0]

    record_count = staticmethod(FastqCodec.record_count)

    @staticmethod
    def decode_many(blobs: Sequence[bytes]) -> list[SamRecord]:
        """The batches' records, in order, as one list."""
        return _sam_records(*_decode(blobs, 4, 5))

    @staticmethod
    def decode(blob: bytes) -> list[SamRecord]:
        """Inverse of :meth:`encode`."""
        return SamCodec.decode_many([blob])


def logical_size(records: Sequence[FastqRecord] | Sequence[SamRecord]) -> int:
    """Decoded in-memory footprint estimate of a record batch (bytes).

    Counts the string payload plus a fixed per-object overhead; this is
    the "logical bytes" side of the compression-ratio telemetry.
    """
    return sum(
        len(r.name) + len(r.sequence) + len(r.quality) + 96
        if isinstance(r, FastqRecord)
        else len(r.qname) + len(r.seq) + len(r.qual) + len(r.rname) + len(r.rnext) + 160
        for r in records
    )


def compressed_size(
    records: Sequence[FastqRecord] | Sequence[SamRecord],
    encoded: bytes | None = None,
) -> int:
    """Size in bytes of the GPF-compressed batch.

    Callers that already hold the encoded blob pass it via ``encoded`` so
    the batch is not re-encoded just to be measured.
    """
    if encoded is not None:
        return len(encoded)
    if not records:
        return 0
    if isinstance(records[0], FastqRecord):
        return len(FastqCodec.encode(records))  # type: ignore[arg-type]
    return len(SamCodec.encode(records))  # type: ignore[arg-type]


def ratio(
    records: Sequence[FastqRecord] | Sequence[SamRecord],
    encoded: bytes | None = None,
) -> float:
    """Compression ratio logical/compressed of one batch (>1 is a win).

    Reuses ``encoded`` when provided — a single encode pass serves both
    the stored blob and the ratio telemetry.
    """
    compressed = compressed_size(records, encoded)
    if compressed == 0:
        return 1.0
    return logical_size(records) / compressed

