"""Compressed-resident partition blocks: the block codec layer.

The paper's thesis is that genomic pipelines become hardware-bound once
the working set fits *in memory* — which only happens if the resident
form is the compressed one.  This module makes every stored partition
(cache blocks, checkpoints, journal files, shuffle spill) a
:class:`CompressedBundle`: the serializer's §4.1-codec payload behind a
small self-describing header.  A block stays in that form until a task
reads it; :func:`decode_partition` then decodes it once, to a list.

Block format (``GPB2``: the payload *inside* the crc32 ``GPFB``
frame)::

    [4s magic "GPB2"][u8 version][1s codec tag]
    [u32 record count][u64 logical bytes, 0 unless estimated]
    [serializer payload]

The codec tag is the gpf serializer's own frame tag (``Q`` FASTQ, ``S``
SAM, ``P`` FASTQ pairs, ``K`` keyed SAM, ``F`` pickle fallback) or ``.``
for the untagged compact serializer, so the chosen representation of
every block is recorded and inspectable.  This is the only block
format: a blob whose header is missing, short or of another version is
refused with :class:`~repro.engine.blockmanager.BlockCorruptionError`,
which the checkpoint and journal read paths downgrade to
discard-and-recompute.
"""

from __future__ import annotations

import struct
import time
from typing import Sequence

from repro.compression.records import logical_size
from repro.engine.blockmanager import BlockCorruptionError
from repro.engine.serializers import CODEC_TAGS, Serializer
from repro.formats.fastq import FastqPair, FastqRecord
from repro.formats.sam import SamRecord

#: Magic prefix of a block payload (inside the GPFB crc frame).
BUNDLE_MAGIC = b"GPB2"
BUNDLE_VERSION = 2

_HEADER = struct.Struct("<4sBcIQ")

#: Codec tag recorded for the compact serializer, whose frames carry no
#: leading tag.
OPAQUE_TAG = b"."


def approx_logical_bytes(elements: Sequence[object]) -> int:
    """Decoded in-memory footprint estimate of one partition (bytes).

    Genomic records get the codec layer's per-record estimate; pairs and
    keyed records unwrap; anything else is charged a flat per-object
    cost.  Only used for the memory-pressure gauges, so a cheap estimate
    beats an exact-but-slow one.
    """
    total = 0
    for element in elements:
        if isinstance(element, (FastqRecord, SamRecord)):
            total += logical_size([element])
        elif isinstance(element, FastqPair):
            total += logical_size([element.read1, element.read2]) + 56
        elif (
            isinstance(element, tuple)
            and len(element) == 2
            and isinstance(element[1], (FastqRecord, SamRecord))
        ):
            total += logical_size([element[1]]) + 120
        else:
            total += 160
    return total


class CompressedBundle:
    """One partition in its resident (compressed, self-describing) form."""

    __slots__ = ("codec", "count", "logical_bytes", "payload")

    def __init__(
        self, codec: bytes, count: int, logical_bytes: int, payload: bytes
    ):
        self.codec = codec
        self.count = count
        self.logical_bytes = logical_bytes
        self.payload = payload

    # -- encode ----------------------------------------------------------
    @classmethod
    def encode(
        cls, elements: Sequence[object], serializer: Serializer
    ) -> "CompressedBundle":
        """One partition's resident block form, logical bytes estimated."""
        bundle = encode_partitions([elements], serializer)[0][1]
        bundle.logical_bytes = approx_logical_bytes(elements)
        return bundle

    def tobytes(self) -> bytes:
        return (
            _HEADER.pack(
                BUNDLE_MAGIC,
                BUNDLE_VERSION,
                self.codec,
                self.count,
                self.logical_bytes,
            )
            + self.payload
        )

    # -- decode ----------------------------------------------------------
    @classmethod
    def frombytes(cls, blob: bytes) -> "CompressedBundle":
        """Parse a block; raises :class:`BlockCorruptionError` unless it
        opens with a whole ``GPB2`` header of the version written here."""
        if len(blob) < _HEADER.size or blob[:4] != BUNDLE_MAGIC:
            raise BlockCorruptionError("not a GPB2 block: header missing or short")
        magic, version, codec, count, logical = _HEADER.unpack_from(blob)
        if version != BUNDLE_VERSION:
            raise BlockCorruptionError(f"unknown GPB2 block version {version}")
        return cls(codec, count, logical, blob[_HEADER.size :])

    @property
    def compressed_bytes(self) -> int:
        return len(self.payload)

    @property
    def ratio(self) -> float:
        """Compression ratio logical/compressed (>1 means a win)."""
        if not self.payload:
            return 1.0
        return self.logical_bytes / len(self.payload)

    def __repr__(self) -> str:
        return (
            f"<CompressedBundle codec={self.codec!r} count={self.count} "
            f"compressed={len(self.payload)}B logical={self.logical_bytes}B>"
        )


def encode_partitions(
    partitions: Sequence[Sequence[object]], serializer: Serializer
) -> list[tuple[bytes, CompressedBundle]]:
    """Partitions -> (block bytes, bundle) each, through one serializer
    pass (``dumps_many``); every block still decodes alone.  Logical bytes
    are 0: a cache put, their one reader, estimates its own."""
    partitions = [p if isinstance(p, list) else list(p) for p in partitions]
    out = []
    for elements, payload in zip(partitions, serializer.dumps_many(partitions)):
        tag = payload[:1] if payload[:1] in CODEC_TAGS or payload[:1] == b"F" else OPAQUE_TAG
        bundle = CompressedBundle(tag, len(elements), 0, payload)
        out.append((bundle.tobytes(), bundle))
    return out


def encode_partition(
    elements: Sequence[object], serializer: Serializer
) -> tuple[bytes, CompressedBundle]:
    """One partition -> (block bytes, its bundle) in a single pass."""
    return encode_partitions([elements], serializer)[0]


def decode_partition(blob: bytes, serializer: Serializer, metrics=None) -> list:
    """Inverse of :func:`encode_partition`: the partition's elements, in one
    ``loads_many`` call.  ``metrics`` (cache reads) is charged the decode
    time and the decoded record count."""
    payload = CompressedBundle.frombytes(blob).payload
    started = time.perf_counter()
    elements = serializer.loads_many([payload])
    if metrics is not None:
        elapsed = time.perf_counter() - started
        metrics.inc("blockmanager.decode_seconds", elapsed)
        metrics.observe("blockmanager.decode_batch_seconds", elapsed)
        metrics.inc("blockmanager.decoded_records", len(elements))
    return elements
