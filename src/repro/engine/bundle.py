"""Compressed-resident partition blocks: the block codec layer.

The paper's thesis is that genomic pipelines become hardware-bound once
the working set fits *in memory* — which only happens if the resident
form is the compressed one.  This module makes every stored partition
(cache blocks, checkpoints, journal files, shuffle spill) a
:class:`CompressedBundle`: the serializer's §4.1-codec payload behind a
small self-describing header, decoded lazily in record batches by
:class:`LazyPartition` instead of being materialized wholesale on every
``get``.

Block format (``GPB2``: the payload *inside* the crc32 ``GPFB``
frame)::

    [4s magic "GPB2"][u8 version][1s codec tag]
    [u32 record count][u64 logical bytes]
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
from itertools import groupby
from typing import Iterator, Sequence

from repro.compression.records import DECODE_BATCH_SIZE, logical_size
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
        """Serialize one partition into its resident block form."""
        return encode_partitions([elements], serializer)[0][1]

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


class LazyPartition:
    """A cached partition that stays compressed until records are pulled.

    Sequence-like enough for every task-function idiom the engine ships
    (iteration, ``len``, ``bool``, indexing/slicing) but decodes in
    record batches on demand.  Iterating twice decodes twice — the point
    is that the *resident* form is the compressed one.  Kernel-feeding
    callers use :meth:`batches` to pull chunk-sized record lists straight
    into ``sw_batch``/``batch_log_likelihoods`` without an intermediate
    whole-partition list.
    """

    __slots__ = ("_bundle", "_serializer", "_metrics")

    def __init__(
        self, bundle: CompressedBundle, serializer: Serializer, metrics=None
    ):
        self._bundle = bundle
        self._serializer = serializer
        self._metrics = metrics

    # -- lazy access -----------------------------------------------------
    def batches(self, batch_size: int = DECODE_BATCH_SIZE) -> Iterator[list]:
        """Yield the partition as record lists of ~``batch_size``."""
        started = time.perf_counter()
        chunks = self._serializer.iter_loads(self._bundle.payload, batch_size)
        while True:
            try:
                chunk = next(chunks)
            except StopIteration:
                break
            finally:
                # Decode time is charged per pull so partially consumed
                # iterations (take, early exit) still account correctly.
                elapsed = time.perf_counter() - started
                if self._metrics is not None and elapsed > 0:
                    self._metrics.inc("blockmanager.decode_seconds", elapsed)
                    self._metrics.observe("blockmanager.decode_batch_seconds", elapsed)
            if self._metrics is not None:
                self._metrics.inc("blockmanager.decoded_records", len(chunk))
            yield chunk
            started = time.perf_counter()

    def __iter__(self) -> Iterator:
        for batch in self.batches():
            yield from batch

    def __len__(self) -> int:
        return self._bundle.count

    def __bool__(self) -> bool:
        return self._bundle.count > 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        count = self._bundle.count
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("partition index out of range")
        for i, element in enumerate(self):
            if i == index:
                return element
        raise IndexError("partition index out of range")  # pragma: no cover

    def materialize(self) -> list:
        """Decode the whole partition to one list (defeats residency —
        the GPF401 lint flags this inside task closures)."""
        return list(self)

    # -- introspection ---------------------------------------------------
    @property
    def bundle(self) -> CompressedBundle:
        return self._bundle

    @property
    def serializer(self) -> Serializer:
        return self._serializer

    @property
    def compressed_bytes(self) -> int:
        return self._bundle.compressed_bytes

    def __repr__(self) -> str:
        return f"<LazyPartition {self._bundle!r}>"

    # -- pickling (the cluster shipper sends partitions to workers) ------
    def __reduce__(self):
        return (decode_partition, (self._bundle.tobytes(), self._serializer))


def encode_partitions(
    partitions: Sequence[Sequence[object]], serializer: Serializer
) -> list[tuple[bytes, CompressedBundle]]:
    """Partitions -> (block bytes, bundle) each, through one serializer
    pass (``dumps_many``); every block still decodes alone."""
    partitions = [p if isinstance(p, list) else list(p) for p in partitions]
    out = []
    for elements, payload in zip(partitions, serializer.dumps_many(partitions)):
        tag = payload[:1] if payload[:1] in CODEC_TAGS or payload[:1] == b"F" else OPAQUE_TAG
        bundle = CompressedBundle(tag, len(elements), approx_logical_bytes(elements), payload)
        out.append((bundle.tobytes(), bundle))
    return out


def encode_partition(
    elements: Sequence[object], serializer: Serializer
) -> tuple[bytes, CompressedBundle]:
    """One partition -> (block bytes, its bundle) in a single pass."""
    return encode_partitions([elements], serializer)[0]


def decode_partition(
    blob: bytes, serializer: Serializer, metrics=None
) -> LazyPartition:
    """Inverse of :func:`encode_partition`: a lazy partition view."""
    return LazyPartition(CompressedBundle.frombytes(blob), serializer, metrics)


class PartitionChain:
    """Re-iterable concatenation of lazy partitions (shuffle reduce input).

    Holds the map-side blocks in their compressed form; iteration decodes
    them lazily in passes of ``batch_size`` records that run across block
    boundaries (one ``iter_loads_many`` over the blocks), so a reduce task
    pays the codec's fixed cost per pass, not per block, and never
    materializes the whole fetched input as one record list.  ``len``
    comes from the block headers without decoding anything.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Sequence):
        self._parts = list(parts)

    def __iter__(self) -> Iterator:
        for batch in self.batches():
            yield from batch

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)

    def __bool__(self) -> bool:
        return any(len(part) for part in self._parts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("partition index out of range")
        for i, element in enumerate(self):
            if i == index:
                return element
        raise IndexError("partition index out of range")  # pragma: no cover

    def batches(self, batch_size: int = DECODE_BATCH_SIZE) -> Iterator[list]:
        for serializer, run in groupby(self._parts, key=lambda part: part.serializer):
            payloads = [part.bundle.payload for part in run]
            yield from serializer.iter_loads_many(payloads, batch_size)


def iter_record_batches(
    partition, batch_size: int = DECODE_BATCH_SIZE
) -> Iterator[list]:
    """Uniform batch view over lazy or materialized partitions.

    Lazily-decoded partitions stream codec chunks; plain lists/iterables
    are sliced without copying the whole input again.  This is how the
    batched kernels (``sw_batch``, ``batch_log_likelihoods``) consume
    partitions without an intermediate full record list.
    """
    if hasattr(partition, "batches"):
        yield from partition.batches(batch_size)
        return
    if isinstance(partition, (list, tuple)):
        for start in range(0, len(partition), batch_size):
            yield list(partition[start : start + batch_size])
        return
    batch: list = []
    for element in partition:
        batch.append(element)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch
