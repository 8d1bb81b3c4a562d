"""Partition serializers: the Kryo stand-in and the genomic codec.

Spark's default shuffle serializer is Kryo; GPF replaces it with its
genomic codec (paper §4.2).  The same pair exists here:

- ``compact`` — binary pickle, the "Kryo" stand-in: compact object framing
  but no entropy coding, so genomic strings pass through byte for byte.
- ``gpf``     — the paper's codec: batches of FASTQ/SAM records go through
  the 2-bit + delta/Huffman record codecs; any other element type falls
  back to ``compact`` (VCF is "the small volume result file", not worth a
  dedicated codec).

Serializers operate on whole partitions (lists of elements) because GPF
stores each RDD partition as one large byte array.
"""

from __future__ import annotations

import pickle
import struct
from typing import Iterator, Protocol, Sequence

from repro.compression.records import (
    DECODE_BATCH_SIZE,
    CodecUnsupportedError,
    FastqCodec,
    SamCodec,
)
from repro.formats.fastq import FastqPair, FastqRecord
from repro.formats.sam import SamRecord


class Serializer(Protocol):
    """Encodes a partition's element list to bytes and back."""

    name: str

    def dumps(self, elements: Sequence[object]) -> bytes: ...

    def loads(self, blob: bytes) -> list[object]: ...

    def iter_loads(
        self, blob: bytes, batch_size: int = DECODE_BATCH_SIZE
    ) -> Iterator[list[object]]: ...


class CompactSerializer:
    """Compact binary pickle — the Kryo analogue.

    Like Kryo it writes a tight binary encoding *without entropy
    compression*, which is exactly the weakness the paper exploits:
    "when shuffling RDDs with complex objects or string types, the Kryo
    compression algorithm becomes inefficient" — genomic strings pass
    through byte for byte.
    """

    name = "compact"

    def dumps(self, elements: Sequence[object]) -> bytes:
        return pickle.dumps(list(elements), protocol=pickle.HIGHEST_PROTOCOL)

    def loads(self, blob: bytes) -> list[object]:
        return pickle.loads(blob)

    def iter_loads(
        self, blob: bytes, batch_size: int = DECODE_BATCH_SIZE
    ) -> Iterator[list[object]]:
        """Pickle has no incremental decode: the whole list is one chunk."""
        yield self.loads(blob)


#: Frame tags for the gpf serializer's per-partition dispatch.
_TAG_FASTQ = b"Q"
_TAG_SAM = b"S"
_TAG_PAIR = b"P"
_TAG_KEYED_SAM = b"K"
_TAG_FALLBACK = b"F"

#: Tags whose payloads the §4.1 batch codecs produced (vs. pickle frames).
CODEC_TAGS = frozenset({b"Q", b"S", b"P", b"K"})


class GpfSerializer:
    """The paper's genomic codec, applied per homogeneous partition.

    A partition of :class:`FastqRecord`, :class:`SamRecord` or
    :class:`FastqPair` is encoded with the matching batch codec; mixed or
    non-genomic partitions fall back to the compact serializer, as does
    any partition containing a record the codec cannot round-trip
    byte-identically (:class:`CodecUnsupportedError` — ambiguity codes,
    lowercase bases, N with a real quality).  Key-value partitions whose
    values are genomic records (``(key, record)`` pairs, ubiquitous after
    ``key_by``) are unzipped so the records still hit the codec.
    """

    name = "gpf"

    def __init__(self) -> None:
        self._fallback = CompactSerializer()

    def dumps(self, elements: Sequence[object]) -> bytes:
        elements = list(elements)
        try:
            if elements and all(isinstance(e, FastqRecord) for e in elements):
                return _TAG_FASTQ + FastqCodec.encode(elements, strict=True)  # type: ignore[arg-type]
            if elements and all(isinstance(e, SamRecord) for e in elements):
                return _TAG_SAM + SamCodec.encode(elements, strict=True)  # type: ignore[arg-type]
            if elements and all(isinstance(e, FastqPair) for e in elements):
                interleaved = [read for pair in elements for read in pair]  # type: ignore[union-attr]
                return _TAG_PAIR + FastqCodec.encode(interleaved, strict=True)
            if (
                elements
                and all(
                    isinstance(e, tuple) and len(e) == 2 and isinstance(e[1], SamRecord)
                    for e in elements
                )
            ):
                keys = pickle.dumps(
                    [e[0] for e in elements], protocol=pickle.HIGHEST_PROTOCOL
                )
                body = SamCodec.encode([e[1] for e in elements], strict=True)  # type: ignore[misc]
                return _TAG_KEYED_SAM + struct.pack("<I", len(keys)) + keys + body
        except CodecUnsupportedError:
            pass  # per-block fallback: the whole partition goes to pickle
        return _TAG_FALLBACK + self._fallback.dumps(elements)

    def loads(self, blob: bytes) -> list[object]:
        out: list[object] = []
        for batch in self.iter_loads(blob):
            out.extend(batch)
        return out

    def iter_loads(
        self, blob: bytes, batch_size: int = DECODE_BATCH_SIZE
    ) -> Iterator[list[object]]:
        """Decode the partition in record chunks of ``batch_size``.

        Codec-tagged payloads decode truly lazily: each chunk is one
        table-driven Huffman pass and one NumPy pass per field over only
        its own records.  Pickle fallbacks yield the whole list at once,
        since pickle has no incremental decode.
        """
        tag, body = blob[:1], blob[1:]
        if tag == _TAG_FASTQ:
            yield from FastqCodec.iter_decode(body, batch_size)
        elif tag == _TAG_SAM:
            yield from SamCodec.iter_decode(body, batch_size)
        elif tag == _TAG_PAIR:
            # Interleaved mates: an even chunk size keeps pairs intact.
            pair_chunk = max(2, batch_size - batch_size % 2)
            for batch in FastqCodec.iter_decode(body, pair_chunk):
                reads = iter(batch)
                yield [FastqPair(r1, r2) for r1, r2 in zip(reads, reads)]
        elif tag == _TAG_KEYED_SAM:
            (key_len,) = struct.unpack_from("<I", body, 0)
            keys = pickle.loads(body[4 : 4 + key_len])
            offset = 0
            for batch in SamCodec.iter_decode(body[4 + key_len :], batch_size):
                yield list(zip(keys[offset : offset + len(batch)], batch))
                offset += len(batch)
        elif tag == _TAG_FALLBACK:
            yield from self._fallback.iter_loads(body, batch_size)
        else:
            raise ValueError(f"unknown gpf serializer frame tag {tag!r}")


_REGISTRY: dict[str, type] = {
    "compact": CompactSerializer,
    "gpf": GpfSerializer,
}


def get_serializer(name: str) -> Serializer:
    """Instantiate a serializer by registry name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown serializer {name!r}; options: {sorted(_REGISTRY)}"
        ) from None
