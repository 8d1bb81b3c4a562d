"""Whole-record codecs for FASTQ and SAM record batches.

GPF stores each RDD partition as one large byte array (paper §4.2).  A
batch codec therefore takes a *list* of records and produces a single
``bytes`` blob:

- the Sequence field is 2-bit packed (``twobit``),
- the Quality field is delta-transformed and Huffman-coded with one codec
  built per encode pass (``delta`` + ``huffman``),
- all remaining fields keep their original structure and are framed
  verbatim — the paper is explicit that SAM's other fields are *not*
  compressed, which is why SAM batches compress less than FASTQ batches
  (Table 3).

The field kernels take a block at a time: its sequences (and qualities)
are one ``uint8`` array with per-record lengths, masked, 2-bit packed,
delta and Huffman coded (and back) in a few NumPy passes; decoded strings
are slices of one ``str`` per field.  Only the framing is per record.

The unit of work is a task, not a batch.  ``encode_groups`` runs one
encode pass over several record groups (a map task's shuffle buckets)
and frames each group as a standalone batch behind the one shared
table; ``decode_many`` decodes several batches into one record list, in
passes that run across batch boundaries, each record with its own
batch's table (``huffman.decode_streams``).  ``encode`` and ``decode``
are their one-batch case.

Binary layout of a batch::

    [u32 record_count]
    [u32 table_len][huffman code-length table as 'sym:len,...' ascii]
    per record:
      [u16 name_len][name][u32 seq_blob_len][seq blob]
      [u32 qual_blob_len][qual bits][u32 extra_len][extra ascii fields]

SAM writes an empty seq blob for a record without SEQ.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from repro.compression.delta import delta_decode_block, delta_encode_block
from repro.compression.huffman import EOF_SYMBOL, HuffmanCodec, decode_streams
from repro.compression.twobit import (
    MASK_QUAL_CHAR,
    _ENCODE_LUT,
    compress_block,
    decompress_block,
)
from repro.formats.cigar import Cigar
from repro.formats.fastq import FastqRecord
from repro.formats.sam import SamRecord, format_tag, parse_tag

#: Records per decode pass: large enough to amortize a pass's fixed NumPy
#: calls, small enough to bound its Huffman decode scratch.
_PASS_SIZE = 512

_MASK = ord(MASK_QUAL_CHAR)


class CodecUnsupportedError(ValueError):
    """A record cannot round-trip byte-identically through the §4.1 codec.

    Raised by ``encode(..., strict=True)`` for records the 2-bit + mask
    transform would alter: lowercase or IUPAC ambiguity codes (decoded as
    ``N``), an ``N`` whose quality is not already the Phred-0 marker (its
    real quality would be clobbered), a real ACGT base carrying the
    reserved Phred-0 score (the mask would be ambiguous), or a SAM QUAL
    without a SEQ (the codec stores qualities only beside bases).  The
    serializer layer catches this and falls back to pickle for the whole
    block.
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


def _strings(views: list) -> list[str]:
    return _split(b"".join(views).decode("ascii"), [len(v) for v in views])


def _block_arrays(seqs: list, quals: list, strict: bool) -> tuple[np.ndarray, ...]:
    """A block's bases and qualities as one ASCII ``uint8`` array each, and
    the per-record lengths.  ``strict`` refuses any record the mask would
    alter: a marked quality must sit on an ``N``, an unmarked one on ACGT."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    if lengths.tolist() != [len(q) for q in quals]:
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
    """One Huffman codec over a block's quality deltas (paper Fig. 5-6);
    each record's deltas are their own stream."""
    deltas = delta_encode_block(qual, lengths)
    hist = np.bincount(deltas + 255, minlength=511)
    present = hist.nonzero()[0]
    freqs = dict(zip((present - 255).tolist(), hist[present].tolist()))
    codec = HuffmanCodec.from_frequencies(freqs)
    return codec, codec.encode_concat(deltas, lengths)


def _decode_qualities(codecs: list, owner: list, blobs: Sequence) -> tuple[np.ndarray, ...]:
    """Inverse of :func:`_encode_qualities` for records of several blocks,
    record ``i`` coded with ``codecs[owner[i]]``: ``(qualities, lengths)``."""
    deltas, lengths = decode_streams(codecs, np.array(owner, dtype=np.int64), blobs)
    return delta_decode_block(deltas, lengths), lengths


def _encode_block(names: list, seqs: list, quals: list, strict: bool) -> tuple:
    """The field kernel shared by the codecs: ``(table, names, seq blobs,
    qual blobs)``."""
    if strict and not "".join(names).isascii():
        raise CodecUnsupportedError("non-ascii record name")
    name_fields = [name.encode("ascii") for name in names]
    seq, qual, lengths = _block_arrays(seqs, quals, strict)
    seq_blobs = compress_block(seq, qual, lengths)
    codec, qual_blobs = _encode_qualities(qual, lengths)
    return _serialize_table(codec.code_lengths()), name_fields, seq_blobs, qual_blobs


def _decode_block(codecs: list, owner: list, names: list, seqs: list, quals: list) -> tuple:
    """Inverse of :func:`_encode_block` for one pass: names, seqs, quals."""
    qual, lengths = _decode_qualities(codecs, owner, quals)
    bases = decompress_block(seqs, qual, lengths).tobytes().decode("ascii")
    quals = qual.tobytes().decode("ascii")
    return _strings(names), _split(bases, lengths), _split(quals, lengths)


def _serialize_table(lengths: dict[int, int]) -> bytes:
    return ",".join(f"{s}:{l}" for s, l in sorted(lengths.items())).encode("ascii")


def _deserialize_table(blob: bytes) -> dict[int, int]:
    table: dict[int, int] = {}
    for token in blob.decode("ascii").split(","):
        sym, length = token.split(":")
        table[int(sym)] = int(length)
    if any(not -255 <= s <= 255 for s in table if s != EOF_SYMBOL):
        raise ValueError("code table holds a symbol outside the delta alphabet")
    return table


@lru_cache(maxsize=128)
def _table_codec(table: bytes) -> HuffmanCodec:
    """The codec a code-length table describes.  Interned: the blocks one
    map task writes share its table, so each distinct table is parsed
    (and its decode table built) once."""
    return HuffmanCodec(_deserialize_table(table))


_WIDTHS = {"H": struct.Struct("<H"), "I": struct.Struct("<I")}


def _frame(table: bytes, columns: list[tuple[str, Sequence]], sizes: Sequence[int]) -> list:
    """One standalone batch per group of ``sizes`` consecutive records, all
    behind the same table: ``[u32 count][u32 table_len][table]``, then per
    record one field per column: width ``H``/``I`` writes bytes behind
    their u16/u32 length, ``h``/``i`` a bare u16/u32 value."""
    layout = [(_WIDTHS[w.upper()].pack, w.isupper()) for w, _ in columns]
    rows = zip(*(values for _, values in columns))
    batches = []
    for size in sizes:
        parts = [struct.pack("<II", size, len(table)), table]
        for _, row in zip(range(size), rows):
            for (pack, prefixed), value in zip(layout, row):
                parts += (pack(len(value)), value) if prefixed else (pack(value),)
        batches.append(b"".join(parts))
    return batches


def _read(data: memoryview, off: int, count: int, widths: str) -> tuple[list, int]:
    """The next ``count`` records framed as :func:`_frame` writes them:
    ``(fields by column, new offset)``; bytes come back as views."""
    fields = [(_WIDTHS[w.upper()], w.isupper(), []) for w in widths]
    try:
        for _ in range(count):
            for fmt, prefixed, column in fields:
                (value,) = fmt.unpack_from(data, off)
                off += fmt.size
                column.append(data[off : off + value] if prefixed else value)
                off += value if prefixed else 0
    except struct.error as exc:
        raise ValueError("truncated batch") from exc
    if off > len(data):
        raise ValueError("truncated batch")
    return [column for _, _, column in fields], off


def _record_count(blob: bytes) -> int:
    """Record count from the batch header, without decoding."""
    return _read(memoryview(blob), 0, 1, "i")[0][0][0]


def _passes(blobs: Sequence, widths: str) -> Iterator[tuple]:
    """The batches' records in decode passes of ``_PASS_SIZE`` that run
    across batch boundaries: each pass's codecs, the index of each record's
    codec, and the records' fields by column."""
    step = _PASS_SIZE
    codecs: list = []
    owner: list = []
    columns: list = [[] for _ in widths]
    for blob in blobs:
        data = memoryview(blob)
        ((count,), (table,)), off = _read(data, 0, 1, "iI")
        codec = _table_codec(bytes(table))
        while count:
            take = min(count, step - len(owner))
            fields, off = _read(data, off, take, widths)
            if not codecs or codecs[-1] is not codec:
                codecs.append(codec)
            owner += [len(codecs) - 1] * take
            for column, values in zip(columns, fields):
                column += values
            count -= take
            if len(owner) == step:
                yield codecs, owner, columns
                codecs, owner, columns = [], [], [[] for _ in widths]
    if owner:
        yield codecs, owner, columns


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
        records = [r for group in groups for r in group]
        table, names, seqs, quals = _encode_block(
            [r.name for r in records],
            [r.sequence for r in records],
            [r.quality for r in records],
            strict,
        )
        columns = [("H", names), ("I", seqs), ("I", quals)]
        return _frame(table, columns, [len(group) for group in groups])

    @staticmethod
    def encode(records: Sequence[FastqRecord], strict: bool = False) -> bytes:
        """One batch for one record group: :meth:`encode_groups` of one."""
        return FastqCodec.encode_groups([records], strict)[0]

    record_count = staticmethod(_record_count)

    @staticmethod
    def decode_many(blobs: Sequence[bytes]) -> list[FastqRecord]:
        """The batches' records, in order, as one list."""
        records: list[FastqRecord] = []
        for codecs, owner, columns in _passes(blobs, "HII"):
            records += map(FastqRecord, *_decode_block(codecs, owner, *columns))
        return records

    @staticmethod
    def decode(blob: bytes) -> list[FastqRecord]:
        """Inverse of :meth:`encode`."""
        return FastqCodec.decode_many([blob])


def _sam_extra_fields(rec: SamRecord) -> bytes:
    """All SAM fields except name/seq/qual, framed as a tab-joined line."""
    fields = [
        str(rec.flag),
        rec.rname,
        str(rec.pos),
        str(rec.mapq),
        str(rec.cigar),
        rec.rnext,
        str(rec.pnext),
        str(rec.tlen),
    ]
    fields += [format_tag(k, v) for k, v in sorted(rec.tags.items())]
    return "\t".join(fields).encode("ascii")


def _sam_extras(records: Sequence[SamRecord], strict: bool) -> list[bytes]:
    """Every record's extra fields, computed once.  Strict mode refuses
    fields that do not frame as one ascii line: a non-ascii byte, or a tab
    or newline inside a tag value (it would re-split on decode)."""
    try:
        extras = [_sam_extra_fields(rec) for rec in records]
    except (UnicodeEncodeError, ValueError, TypeError) as exc:
        if strict:
            raise CodecUnsupportedError("SAM extra fields are not ascii") from exc
        raise
    # A line has at least 7 + len(tags) tabs: the totals agree only if
    # every line does.
    joined = b"".join(extras)
    tabs = sum(7 + len(rec.tags) for rec in records)
    if strict and (b"\n" in joined or joined.count(b"\t") != tabs):
        raise CodecUnsupportedError("SAM tag contains a framing byte (tab/newline)")
    return extras


def _sam_from_extra(name: str, seq: str, qual: str, extra: str) -> SamRecord:
    flag, rname, pos, mapq, cigar, rnext, pnext, tlen, *tags = extra.split("\t")
    return SamRecord(
        name, int(flag), rname, int(pos), int(mapq), Cigar.parse(cigar), rnext,
        int(pnext), int(tlen), seq, qual, dict(map(parse_tag, tags)),
    )


class SamCodec:
    """Batch codec for SAM records: seq/qual compressed, other fields framed."""

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
        records = [r for group in groups for r in group]
        extras = _sam_extras(records, strict)
        if strict and any(r.qual and not r.seq for r in records):
            raise CodecUnsupportedError("SAM record with QUAL but no SEQ")
        seqs = [r.seq for r in records]
        quals = [r.qual if r.seq else "" for r in records]
        table, names, seq_blobs, quals = _encode_block(
            [r.qname for r in records], seqs, quals, strict
        )
        seq_blobs = [blob if seq else b"" for blob, seq in zip(seq_blobs, seqs)]
        columns = [("H", names), ("I", seq_blobs), ("I", quals), ("I", extras)]
        return _frame(table, columns, [len(group) for group in groups])

    @staticmethod
    def encode(records: Sequence[SamRecord], strict: bool = False) -> bytes:
        """One batch for one record group: :meth:`encode_groups` of one."""
        return SamCodec.encode_groups([records], strict)[0]

    record_count = staticmethod(_record_count)

    @staticmethod
    def decode_many(blobs: Sequence[bytes]) -> list[SamRecord]:
        """The batches' records, in order, as one list."""
        records: list[SamRecord] = []
        for codecs, owner, (names, seqs, quals, extras) in _passes(blobs, "HIII"):
            fields = _decode_block(codecs, owner, names, seqs, quals)
            records += map(_sam_from_extra, *fields, _strings(extras))
        return records

    @staticmethod
    def decode(blob: bytes) -> list[SamRecord]:
        """Inverse of :meth:`encode`."""
        return SamCodec.decode_many([blob])


def logical_size(records: Sequence[FastqRecord] | Sequence[SamRecord]) -> int:
    """Decoded in-memory footprint estimate of a record batch (bytes).

    Counts the string payload plus a fixed per-object overhead; this is
    the "logical bytes" side of the compression-ratio telemetry.
    """
    total = 0
    for rec in records:
        if isinstance(rec, FastqRecord):
            total += len(rec.name) + len(rec.sequence) + len(rec.quality) + 96
        else:
            total += (
                len(rec.qname)
                + len(rec.seq)
                + len(rec.qual)
                + len(rec.rname)
                + len(rec.rnext)
                + 160
            )
    return total


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
