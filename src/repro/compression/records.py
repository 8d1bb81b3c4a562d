"""Whole-record codecs for FASTQ and SAM record batches.

GPF stores each RDD partition as one large byte array (paper §4.2).  A
batch codec therefore takes a *list* of records and produces a single
``bytes`` blob:

- the Sequence field is 2-bit packed (``twobit``),
- the Quality field is delta-transformed and Huffman-coded with one codec
  built per batch (``delta`` + ``huffman``),
- all remaining fields keep their original structure and are framed
  verbatim — the paper is explicit that SAM's other fields are *not*
  compressed, which is why SAM batches compress less than FASTQ batches
  (Table 3).

Binary layout of a batch::

    [u32 record_count]
    [u32 table_len][huffman code-length table as 'sym:len,...' ascii]
    per record:
      [u16 name_len][name][u32 seq_blob_len][seq blob]
      [u32 qual_blob_len][qual bits][u32 extra_len][extra ascii fields]
"""

from __future__ import annotations

import struct
from typing import Iterator, Sequence

import numpy as np

from repro.compression.delta import delta_decode, delta_encode
from repro.compression.huffman import HuffmanCodec
from repro.compression.twobit import (
    MASK_QUAL_CHAR,
    _ENCODE_LUT,
    compress_sequence,
    decompress_sequence,
)
from repro.formats.cigar import Cigar
from repro.formats.fastq import FastqRecord
from repro.formats.sam import SamRecord, format_tag, parse_tag

#: Default record-batch size for the lazy ``iter_decode`` generators —
#: large enough to amortize the Huffman table setup, small enough that a
#: consumer never holds more than a sliver of the partition decoded.
DECODE_BATCH_SIZE = 512


class CodecUnsupportedError(ValueError):
    """A record cannot round-trip byte-identically through the §4.1 codec.

    Raised by ``encode(..., strict=True)`` for records the 2-bit + mask
    transform would alter: lowercase or IUPAC ambiguity codes (decoded as
    ``N``), an ``N`` whose quality is not already the Phred-0 marker (its
    real quality would be clobbered), or a real ACGT base carrying the
    reserved Phred-0 score (the mask would be ambiguous).  The serializer
    layer catches this and falls back to pickle for the whole block.
    """


def roundtrip_safe(sequence: str, quality: str) -> bool:
    """True when (sequence, quality) survive the codec byte-identically.

    Exactly the records the mask transform leaves untouched: every base
    is ACGT (quality anything but the reserved ``!``) or an ``N`` whose
    quality is *already* the Phred-0 marker.
    """
    if len(sequence) != len(quality):
        return False
    if not sequence:
        return True
    try:
        seq = np.frombuffer(sequence.encode("ascii"), dtype=np.uint8)
        qual = np.frombuffer(quality.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return False
    special = _ENCODE_LUT[seq] == 255
    mask = ord(MASK_QUAL_CHAR)
    # A special base must be exactly N-with-marker; a regular base must
    # not use the reserved marker score.
    bad_special = special & ~((seq == ord("N")) & (qual == mask))
    collision = (~special) & (qual == mask)
    return not (bool(bad_special.any()) or bool(collision.any()))


def _check_strict(name: str, sequence: str, quality: str) -> None:
    try:
        name.encode("ascii")
    except UnicodeEncodeError as exc:
        raise CodecUnsupportedError(f"non-ascii record name {name!r}") from exc
    if not roundtrip_safe(sequence, quality):
        raise CodecUnsupportedError(
            f"record {name!r} would not round-trip byte-identically "
            "(ambiguity code, lowercase base, or N with a real quality)"
        )


def _check_sam_strict(rec: SamRecord) -> None:
    """Strict-mode gate for one SAM record: name, payload, extra fields.

    The extra fields are framed as one tab-joined ascii line, so a tag
    value carrying a tab/newline (or any non-ascii byte) would re-split
    into the wrong fields on decode — those records must take the pickle
    fallback.
    """
    if rec.seq:
        _check_strict(rec.qname, rec.seq, rec.qual)
    else:
        try:
            rec.qname.encode("ascii")
        except UnicodeEncodeError as exc:
            raise CodecUnsupportedError(
                f"non-ascii record name {rec.qname!r}"
            ) from exc
    try:
        extra = _sam_extra_fields(rec)
    except (UnicodeEncodeError, ValueError, TypeError) as exc:
        raise CodecUnsupportedError(
            f"SAM extra fields of {rec.qname!r} are not ascii-framable"
        ) from exc
    if extra.count(b"\t") != 7 + len(rec.tags) or b"\n" in extra:
        raise CodecUnsupportedError(
            f"SAM tag of {rec.qname!r} contains a framing byte (tab/newline)"
        )


def _serialize_table(lengths: dict[int, int]) -> bytes:
    return ",".join(f"{s}:{l}" for s, l in sorted(lengths.items())).encode("ascii")


def _deserialize_table(blob: bytes) -> dict[int, int]:
    table: dict[int, int] = {}
    for token in blob.decode("ascii").split(","):
        sym, length = token.split(":")
        table[int(sym)] = int(length)
    return table


class _BatchWriter:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u16(self, value: int) -> None:
        self._parts.append(struct.pack("<H", value))

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def blob(self, data: bytes, width: str = "u32") -> None:
        if width == "u16":
            self.u16(len(data))
        else:
            self.u32(len(data))
        self._parts.append(data)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _BatchReader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._off = 0

    def u16(self) -> int:
        (value,) = struct.unpack_from("<H", self._data, self._off)
        self._off += 2
        return value

    def u32(self) -> int:
        (value,) = struct.unpack_from("<I", self._data, self._off)
        self._off += 4
        return value

    def blob(self, width: str = "u32") -> bytes:
        n = self.u16() if width == "u16" else self.u32()
        out = self._data[self._off : self._off + n]
        self._off += n
        return out


def _encode_qualities(masked_quals: list[str]) -> tuple[HuffmanCodec, list[bytes]]:
    """Build one Huffman codec over a batch's quality deltas, encode each."""
    deltas = [delta_encode(q) for q in masked_quals]
    freqs: dict[int, int] = {}
    for arr in deltas:
        symbols, counts = np.unique(arr, return_counts=True)
        for s, c in zip(symbols.tolist(), counts.tolist()):
            freqs[s] = freqs.get(s, 0) + c
    codec = HuffmanCodec.from_frequencies(freqs)
    return codec, [codec.encode(arr) for arr in deltas]


class FastqCodec:
    """Batch codec for FASTQ records."""

    @staticmethod
    def encode(records: Sequence[FastqRecord], strict: bool = False) -> bytes:
        """Serialize a record batch to one byte blob (see module layout).

        With ``strict=True`` every record must round-trip byte-identically
        or :class:`CodecUnsupportedError` is raised before any output is
        produced (the serializer layer then falls back to pickle).
        """
        writer = _BatchWriter()
        writer.u32(len(records))
        seq_blobs: list[bytes] = []
        masked_quals: list[str] = []
        for rec in records:
            if strict:
                _check_strict(rec.name, rec.sequence, rec.quality)
            blob, masked = compress_sequence(rec.sequence, rec.quality)
            seq_blobs.append(blob)
            masked_quals.append(masked)
        codec, qual_blobs = _encode_qualities(masked_quals)
        writer.blob(_serialize_table(codec.code_lengths()))
        for rec, seq_blob, qual_blob in zip(records, seq_blobs, qual_blobs):
            writer.blob(rec.name.encode("ascii"), width="u16")
            writer.blob(seq_blob)
            writer.blob(qual_blob)
        return writer.getvalue()

    @staticmethod
    def record_count(blob: bytes) -> int:
        """Record count from the batch header, without decoding."""
        return _BatchReader(blob).u32()

    @staticmethod
    def iter_decode(
        blob: bytes, batch_size: int = DECODE_BATCH_SIZE
    ) -> Iterator[list[FastqRecord]]:
        """Lazily decode the batch, yielding record chunks of ``batch_size``."""
        reader = _BatchReader(blob)
        count = reader.u32()
        codec = HuffmanCodec(_deserialize_table(reader.blob()))
        batch: list[FastqRecord] = []
        for _ in range(count):
            name = reader.blob(width="u16").decode("ascii")
            seq_blob = reader.blob()
            masked_qual = delta_decode(codec.decode(reader.blob()))
            seq = decompress_sequence(seq_blob, masked_qual)
            # Restore the original quality: the Phred-0 markers were only
            # meaningful for masked bases; real FASTQ keeps them (score 0
            # positions correspond to N bases whose original quality the
            # sequencer reported as low anyway -- the Deorowicz transform
            # is lossy exactly there, replacing the N's quality with 0).
            batch.append(FastqRecord(name=name, sequence=seq, quality=masked_qual))
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    @staticmethod
    def decode(blob: bytes) -> list[FastqRecord]:
        """Inverse of :meth:`encode`."""
        out: list[FastqRecord] = []
        for batch in FastqCodec.iter_decode(blob):
            out.extend(batch)
        return out


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


def _sam_from_extra(name: str, seq: str, qual: str, extra: bytes) -> SamRecord:
    parts = extra.decode("ascii").split("\t")
    tags: dict[str, object] = {}
    for raw in parts[8:]:
        key, value = parse_tag(raw)
        tags[key] = value
    return SamRecord(
        qname=name,
        flag=int(parts[0]),
        rname=parts[1],
        pos=int(parts[2]),
        mapq=int(parts[3]),
        cigar=Cigar.parse(parts[4]),
        rnext=parts[5],
        pnext=int(parts[6]),
        tlen=int(parts[7]),
        seq=seq,
        qual=qual,
        tags=tags,
    )


class SamCodec:
    """Batch codec for SAM records: seq/qual compressed, other fields framed."""

    @staticmethod
    def encode(records: Sequence[SamRecord], strict: bool = False) -> bytes:
        """Serialize a record batch to one byte blob (see module layout).

        ``strict=True`` raises :class:`CodecUnsupportedError` for records
        that would not round-trip byte-identically (see FastqCodec).
        """
        writer = _BatchWriter()
        writer.u32(len(records))
        seq_blobs: list[bytes] = []
        masked_quals: list[str] = []
        for rec in records:
            if strict:
                _check_sam_strict(rec)
            if rec.seq:
                blob, masked = compress_sequence(rec.seq, rec.qual)
            else:
                blob, masked = b"", ""
            seq_blobs.append(blob)
            masked_quals.append(masked)
        codec, qual_blobs = _encode_qualities(masked_quals)
        writer.blob(_serialize_table(codec.code_lengths()))
        for rec, seq_blob, qual_blob in zip(records, seq_blobs, qual_blobs):
            writer.blob(rec.qname.encode("ascii"), width="u16")
            writer.blob(seq_blob)
            writer.blob(qual_blob)
            writer.blob(_sam_extra_fields(rec))
        return writer.getvalue()

    @staticmethod
    def record_count(blob: bytes) -> int:
        """Record count from the batch header, without decoding."""
        return _BatchReader(blob).u32()

    @staticmethod
    def iter_decode(
        blob: bytes, batch_size: int = DECODE_BATCH_SIZE
    ) -> Iterator[list[SamRecord]]:
        """Lazily decode the batch, yielding record chunks of ``batch_size``."""
        reader = _BatchReader(blob)
        count = reader.u32()
        codec = HuffmanCodec(_deserialize_table(reader.blob()))
        batch: list[SamRecord] = []
        for _ in range(count):
            name = reader.blob(width="u16").decode("ascii")
            seq_blob = reader.blob()
            masked_qual = delta_decode(codec.decode(reader.blob()))
            extra = reader.blob()
            seq = decompress_sequence(seq_blob, masked_qual) if seq_blob else ""
            batch.append(_sam_from_extra(name, seq, masked_qual, extra))
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    @staticmethod
    def decode(blob: bytes) -> list[SamRecord]:
        """Inverse of :meth:`encode`."""
        out: list[SamRecord] = []
        for batch in SamCodec.iter_decode(blob):
            out.extend(batch)
        return out


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
