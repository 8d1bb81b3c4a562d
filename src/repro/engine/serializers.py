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
from itertools import groupby
from typing import Protocol, Sequence

from repro.compression.records import CodecUnsupportedError, FastqCodec, SamCodec
from repro.formats.fastq import FastqPair, FastqRecord
from repro.formats.sam import SamRecord


class Serializer(Protocol):
    """Encodes partitions' element lists to bytes and back.

    ``dumps_many``/``loads_many`` take several partitions at once (a map
    task's shuffle buckets, a reduce task's fetched blocks) so a
    serializer can share work across them; each payload still decodes
    alone.  ``dumps``/``loads`` are their one-partition case.
    """

    name: str

    def dumps(self, elements: Sequence[object]) -> bytes: ...

    def dumps_many(self, groups: Sequence[Sequence[object]]) -> list[bytes]: ...

    def loads(self, blob: bytes) -> list[object]: ...

    def loads_many(self, blobs: Sequence[bytes]) -> list[object]: ...


class _OneEntryPoint:
    """``dumps`` and ``loads`` as the one-partition case of ``dumps_many``
    and ``loads_many``."""

    def dumps(self, elements: Sequence[object]) -> bytes:
        return self.dumps_many([elements])[0]

    def loads(self, blob: bytes) -> list[object]:
        return self.loads_many([blob])


class CompactSerializer(_OneEntryPoint):
    """Compact binary pickle — the Kryo analogue.

    Like Kryo it writes a tight binary encoding *without entropy
    compression*, which is exactly the weakness the paper exploits:
    "when shuffling RDDs with complex objects or string types, the Kryo
    compression algorithm becomes inefficient" — genomic strings pass
    through byte for byte.
    """

    name = "compact"

    def dumps_many(self, groups: Sequence[Sequence[object]]) -> list[bytes]:
        return [pickle.dumps(list(group), protocol=pickle.HIGHEST_PROTOCOL) for group in groups]

    def loads_many(self, blobs: Sequence[bytes]) -> list[object]:
        """The partitions' elements, in order, as one list."""
        elements: list = []
        for blob in blobs:
            elements += pickle.loads(blob)
        return elements


#: Frame tags for the gpf serializer's per-partition dispatch.
_TAG_FASTQ = b"Q"
_TAG_SAM = b"S"
_TAG_PAIR = b"P"
_TAG_KEYED_SAM = b"K"
_TAG_FALLBACK = b"F"

_KEY_LEN = struct.Struct("<I")


def _codec_tag(elements: list) -> bytes | None:
    """The codec tag whose batch codec takes every element, or None."""
    if not elements:
        return None
    if all(isinstance(e, FastqRecord) for e in elements):
        return _TAG_FASTQ
    if all(isinstance(e, SamRecord) for e in elements):
        return _TAG_SAM
    if all(isinstance(e, FastqPair) for e in elements):
        return _TAG_PAIR
    if all(isinstance(e, tuple) and len(e) == 2 and isinstance(e[1], SamRecord) for e in elements):
        return _TAG_KEYED_SAM
    return None


def _encode_groups(tag: bytes, groups: list[list]) -> list[bytes]:
    """Every group's payload under ``tag``, in one codec pass."""
    if tag == _TAG_FASTQ:
        bodies = FastqCodec.encode_groups(groups, strict=True)
    elif tag == _TAG_SAM:
        bodies = SamCodec.encode_groups(groups, strict=True)
    elif tag == _TAG_PAIR:
        reads = [[read for pair in group for read in pair] for group in groups]
        bodies = FastqCodec.encode_groups(reads, strict=True)
    else:
        sams = SamCodec.encode_groups([[e[1] for e in group] for group in groups], strict=True)
        keys = [
            pickle.dumps([e[0] for e in group], protocol=pickle.HIGHEST_PROTOCOL)
            for group in groups
        ]
        bodies = [_KEY_LEN.pack(len(k)) + k + body for k, body in zip(keys, sams)]
    return [tag + body for body in bodies]


class GpfSerializer(_OneEntryPoint):
    """The paper's genomic codec, applied per homogeneous partition.

    A partition of :class:`FastqRecord`, :class:`SamRecord` or
    :class:`FastqPair` is encoded with the matching batch codec; mixed or
    non-genomic partitions fall back to the compact serializer, as does
    any partition containing a record the codec cannot round-trip
    byte-identically (:class:`CodecUnsupportedError` — ambiguity codes,
    lowercase bases, N with a real quality).  Key-value partitions whose
    values are genomic records (``(key, record)`` pairs, ubiquitous after
    ``key_by``) are unzipped so the records still hit the codec.

    Partitions of one kind handed over together (a map task's buckets)
    cross the codec in one pass behind one shared table; each payload
    still decodes alone.
    """

    name = "gpf"

    def __init__(self) -> None:
        self._fallback = CompactSerializer()

    def dumps_many(self, groups: Sequence[Sequence[object]]) -> list[bytes]:
        groups = [group if isinstance(group, list) else list(group) for group in groups]
        tags = {_codec_tag(group) for group in groups}
        if len(tags) > 1:
            return [self.dumps(group) for group in groups]  # mixed kinds
        tag = tags.pop() if tags else None
        if tag is not None:
            try:
                return _encode_groups(tag, groups)
            except CodecUnsupportedError:
                if len(groups) > 1:
                    # A record the codec refuses: each partition gets its
                    # own codec pass and its own pickle fallback.
                    return [self.dumps(group) for group in groups]
        return [_TAG_FALLBACK + self._fallback.dumps(group) for group in groups]

    def loads_many(self, blobs: Sequence[bytes]) -> list[object]:
        """The partitions' elements, in order, as one list.

        Consecutive codec payloads of one tag decode in one codec call, so
        a reduce task's fetched blocks pay the codec's fixed cost once.
        """
        elements: list = []
        for tag, run in groupby(map(memoryview, blobs), key=lambda blob: bytes(blob[:1])):
            bodies = [blob[1:] for blob in run]
            if tag == _TAG_FASTQ:
                elements += FastqCodec.decode_many(bodies)
            elif tag == _TAG_SAM:
                elements += SamCodec.decode_many(bodies)
            elif tag == _TAG_PAIR:
                reads = iter(FastqCodec.decode_many(bodies))
                elements += map(FastqPair, reads, reads)  # interleaved mates
            elif tag == _TAG_KEYED_SAM:
                keys: list = []
                sams = []
                for body in bodies:
                    (key_len,) = _KEY_LEN.unpack_from(body, 0)
                    keys += pickle.loads(body[4 : 4 + key_len])
                    sams.append(body[4 + key_len :])
                elements += zip(keys, SamCodec.decode_many(sams))
            elif tag == _TAG_FALLBACK:
                elements += self._fallback.loads_many(bodies)
            else:
                raise ValueError(f"unknown gpf serializer frame tag {tag!r}")
        return elements


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
