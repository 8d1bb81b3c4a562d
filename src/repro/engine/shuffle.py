"""Hash shuffle with real spill files — the one shuffle data path.

Spark writes *all* shuffle data to disk, even for in-memory workloads — a
fact the paper leans on ("even in-memory workloads store shuffle data on
disk", §5.3.1).  This shuffle manager does the same: map tasks bucket their
output by the partitioner, serialize the buckets in one serializer pass,
and write **one** file per map task, ``shuffle_<id>/<map>.bin`` — Spark's
sort-shuffle layout.  The file holds the non-empty buckets as crc-framed
serializer payloads (``frame_block`` over ``dumps_many``) back to back,
followed by a self-describing index: R+1 big-endian u64 offsets, u32 R,
and a crc32 over both.  Reduce partition ``r`` is the byte range
``[offset[r], offset[r+1])``; an empty bucket is a zero-length range and
is never encoded, framed or written.  :meth:`ShuffleManager.write` is the
one writer of this layout and :func:`read_block` the one reader; every
block server reads through it, and the manager keeps each map output's
verified index (:func:`read_index`) after its first read.

Every backend runs this code.  The only thing a backend may vary is
:meth:`ShuffleManager._fetch_block` — "give me the bytes of block
(shuffle, map, reduce)" — which reads this node's map-output file here and
which the cluster transport's subclass (``DistShuffle`` in the ``dist``
package) overrides to fetch from the peer the *location table* names.
That table, ``shuffle -> {map partition -> location}``, is also the
completeness ledger: a reduce that finds a map partition without a
location, or whose block cannot be read, raises the typed
:class:`~repro.engine.faults.ShuffleFetchFailedError` the scheduler's
lineage recovery keys on.

Time spent inside file read/write is recorded as *disk-blocked* time on the
running task.  Network-blocked time is modelled: a reduce task reading
bucket bytes ``b`` from ``m`` map outputs charges ``b * (m-1)/m /
network_bandwidth`` (all but its co-located map output crosses the fabric),
mirroring how Spark's fetch-wait instrumentation attributes remote reads.
"""

from __future__ import annotations

import os
import shutil
import struct
import threading
import zlib
from typing import Sequence, TYPE_CHECKING

from repro.engine.blockmanager import frame_block, unframe_block
from repro.engine.faults import ShuffleFetchFailedError
from repro.engine.metrics import TaskMetrics, timed
from repro.engine.serializers import Serializer

if TYPE_CHECKING:
    from repro.engine.rdd import Partitioner


#: Tail of a map-output file: u32 reduce-partition count R, then the
#: crc32 of the offset table and that count.
_TAIL = struct.Struct(">II")
_OFFSET = struct.Struct(">Q")


def _map_output_path(root: str, shuffle_id: int, map_p: int) -> str:
    return os.path.join(root, f"shuffle_{shuffle_id}", f"{map_p}.bin")


def _index(offsets: list[int]) -> bytes:
    """The trailer ``write`` appends: R+1 offsets, R, crc32 over both."""
    table = struct.pack(f">{len(offsets)}QI", *offsets, len(offsets) - 1)
    return table + zlib.crc32(table).to_bytes(4, "big")


def read_index(root: str, shuffle_id: int, map_p: int) -> list[int]:
    """The verified offset table of a map-output file: R+1 offsets, every
    block range inside the file.  A missing or torn file, or an index that
    fails its crc, raises :class:`ShuffleFetchFailedError`."""
    path = _map_output_path(root, shuffle_id, map_p)
    try:
        with open(path, "rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            if size < _TAIL.size:
                raise _failed(path, shuffle_id, map_p, "torn map output")
            fh.seek(size - _TAIL.size)
            tail = fh.read(_TAIL.size)
            num_reduce, crc = _TAIL.unpack(tail)
            table_start = size - _TAIL.size - (num_reduce + 1) * _OFFSET.size
            if table_start < 0:
                raise _failed(path, shuffle_id, map_p, "torn map output")
            fh.seek(table_start)
            table = fh.read((num_reduce + 1) * _OFFSET.size)
    except OSError as exc:
        raise _failed(path, shuffle_id, map_p, exc) from exc
    if zlib.crc32(table + tail[:4]) != crc:
        raise _failed(path, shuffle_id, map_p, "map output index crc mismatch")
    offsets = list(struct.unpack(f">{num_reduce + 1}Q", table))
    if not all(a <= b for a, b in zip(offsets, offsets[1:] + [table_start])):
        raise _failed(path, shuffle_id, map_p, "block range outside the file")
    return offsets


def read_block(
    root: str, shuffle_id: int, map_p: int, reduce_p: int, offsets: list[int] | None = None
) -> bytes:
    """The bytes of block (shuffle, map, reduce) under a shuffle root,
    exactly as :meth:`ShuffleManager.write` stored them — ``b""`` for an
    empty bucket.

    Reads the file's index (:func:`read_index`) unless the caller keeps
    it as ``offsets``, then one byte range.  A reduce partition the index
    does not have, or a file torn short of the block, raises
    :class:`ShuffleFetchFailedError`; the block's own crc frame is checked
    by the reader that decodes it.
    """
    path = _map_output_path(root, shuffle_id, map_p)
    offsets = read_index(root, shuffle_id, map_p) if offsets is None else offsets
    if not (isinstance(reduce_p, int) and 0 <= reduce_p < len(offsets) - 1):
        raise _failed(path, shuffle_id, map_p, f"no reduce partition {reduce_p!r}")
    start, end = offsets[reduce_p], offsets[reduce_p + 1]
    if start == end:
        return b""
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            blob = fh.read(end - start)
    except OSError as exc:
        raise _failed(path, shuffle_id, map_p, exc) from exc
    if len(blob) != end - start:
        raise _failed(path, shuffle_id, map_p, "torn map output")
    return blob


def _failed(path: str, shuffle_id: int, map_p: int, why: object) -> ShuffleFetchFailedError:
    return ShuffleFetchFailedError(shuffle_id, map_p, where=f"{path}: {why}")


class ShuffleManager:
    """Owns the spill directory and all shuffle state for one context."""

    def __init__(
        self,
        spill_dir: str,
        network_bandwidth: float | None = 1.25e9,
        metrics=None,
        chaos=None,
    ):
        self._spill_dir = spill_dir
        #: Modelled fabric bandwidth (bytes/s) charged as network-blocked
        #: time on reads; None when fetches are measured instead.
        self._network_bandwidth = network_bandwidth
        #: Optional ChaosInjector: shuffle.write faults surface as task
        #: OSErrors (retried), shuffle.fetch mangles exercise the crc path.
        self.chaos = chaos
        #: Optional MetricsRegistry mirroring shuffle traffic as named
        #: whole-run counters (the context wires its own registry in).
        self._metrics = metrics
        #: What the location table records for a map output written here.
        #: Opaque to this class; ``_fetch_block`` is its only reader.
        self._here: object = None
        self._lock = threading.Lock()
        #: shuffle_id -> {"num_map": int, "maps": {map_partition: location}}
        self._locations: dict[int, dict] = {}
        #: (shuffle, map) -> verified index of a map output; ``write`` drops it.
        self._offsets: dict[tuple[int, int], list[int]] = {}
        self._next_id = 0
        os.makedirs(spill_dir, exist_ok=True)

    # -- registration ----------------------------------------------------
    def register(self, num_map: int) -> int:
        """Allocate a shuffle id for a map side ``num_map`` partitions wide."""
        with self._lock:
            shuffle_id = self._next_id
            self._next_id += 1
            self._locations[shuffle_id] = {"num_map": num_map, "maps": {}}
        return shuffle_id

    def locations(self, shuffle_id: int) -> tuple[int, dict]:
        """``(map-side width, {map partition: location})`` of one shuffle."""
        with self._lock:
            entry = self._locations[shuffle_id]
            return entry["num_map"], dict(entry["maps"])

    # -- map side ----------------------------------------------------------
    def write(
        self,
        shuffle_id: int,
        map_partition: int,
        elements: Sequence[tuple],
        partitioner: "Partitioner",
        serializer: Serializer,
        task: TaskMetrics,
    ) -> None:
        """Bucket key-value pairs and spill them as one map-output file."""
        buckets: list[list] = [[] for _ in range(partitioner.num_partitions)]
        records = 0
        for kv in elements:
            buckets[partitioner(kv[0])].append(kv)
            records += 1
        # Spill each non-empty bucket's serializer payload in a crc32
        # frame: spill I/O shrinks by the codec's compression ratio and a
        # torn block is detected on read instead of feeding garbage.  The
        # buckets cross the codec in one pass (one shared table), yet each
        # block decodes alone.  An empty bucket is a zero-length range.
        blocks = iter(serializer.dumps_many([b for b in buckets if b]))
        frames: list[bytes] = []
        offsets = [0]
        for bucket in buckets:
            if bucket:
                frames.append(frame_block(next(blocks)))
                offsets.append(offsets[-1] + len(frames[-1]))
            else:
                offsets.append(offsets[-1])
        frames.append(_index(offsets))
        path = _map_output_path(self._spill_dir, shuffle_id, map_partition)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with timed(task, "disk_blocked"):
            with open(path, "wb") as fh:
                if self.chaos is not None:
                    # An injected ENOSPC/EIO here kills the map attempt and
                    # leaves a torn file; the scheduler retries the attempt
                    # and the rewrite overwrites it.  A reader that meets
                    # the torn file fails its index check, typed.
                    self.chaos.hit(
                        "shuffle.write", shuffle=shuffle_id, map=map_partition
                    )
                fh.write(b"".join(frames))
        total = offsets[-1]
        task.shuffle_bytes_written += total
        task.records_written += records
        if self._metrics is not None:
            self._metrics.inc("shuffle.files_written")
            self._metrics.inc("shuffle.bytes_written", total)
            self._metrics.inc("shuffle.records_written", records)
        with self._lock:
            self._offsets.pop((shuffle_id, map_partition), None)
            self._locations[shuffle_id]["maps"][map_partition] = self._here

    # -- reduce side --------------------------------------------------------
    def _fetch_block(
        self,
        shuffle_id: int,
        map_partition: int,
        reduce_partition: int,
        location: object,
        task: TaskMetrics,
    ) -> bytes:
        """The bytes of one spill block, exactly as ``write`` stored them.

        The single point a backend varies: here every location is this
        node, so the block is a range of a file under the spill directory.
        The file's index is read and checked on its first read only.
        """
        key = (shuffle_id, map_partition)
        with timed(task, "disk_blocked"):
            with self._lock:
                offsets = self._offsets.get(key)
            if offsets is None:
                offsets = read_index(self._spill_dir, shuffle_id, map_partition)
                with self._lock:
                    self._offsets[key] = offsets
            return read_block(self._spill_dir, shuffle_id, map_partition, reduce_partition, offsets)

    def read(
        self,
        shuffle_id: int,
        reduce_partition: int,
        serializer: Serializer,
        task: TaskMetrics,
    ) -> list:
        """Read every map output's bucket for this reduce partition.

        Returns the fetched records as one list: every block of the reduce
        task is decoded in one ``loads_many`` call, so the codec's fixed
        cost is paid per task, not per block.
        """
        num_map, maps = self.locations(shuffle_id)
        missing = sorted(set(range(num_map)) - set(maps))
        if missing:
            raise ShuffleFetchFailedError(shuffle_id, missing[0], where="no location")
        payloads: list = []
        total = 0
        for map_partition in range(num_map):
            blob = self._fetch_block(
                shuffle_id, map_partition, reduce_partition, maps[map_partition], task
            )
            # Emptiness is decided on the bytes as fetched: a block a
            # mangle tears down to nothing must still fail its crc check.
            empty = not blob
            if self.chaos is not None:
                # Fetch faults: a hit raises (connection-reset-class
                # failure), a mangle damages only this in-memory copy —
                # the crc check below fails the attempt, and the retry
                # re-reads the intact spill file.
                self.chaos.hit(
                    "shuffle.fetch", shuffle=shuffle_id, map=map_partition
                )
                blob = self.chaos.mangle(
                    "shuffle.fetch", blob, shuffle=shuffle_id, map=map_partition
                )
            if empty:
                continue  # an empty bucket: no block was written
            total += len(blob)
            # crc check catches torn/corrupt spill blocks before decode.
            payloads.append(unframe_block(blob))
        records = serializer.loads_many(payloads)
        task.shuffle_bytes_read += total
        task.records_read += len(records)
        if self._metrics is not None:
            self._metrics.inc("shuffle.bytes_read", total)
            self._metrics.inc("shuffle.records_read", len(records))
        if self._network_bandwidth and num_map > 1:
            remote_fraction = (num_map - 1) / num_map
            task.network_blocked += total * remote_fraction / self._network_bandwidth
        return records

    # -- cleanup ---------------------------------------------------------
    def cleanup(self) -> None:
        """Delete every spill file and reset shuffle state."""
        shutil.rmtree(self._spill_dir, ignore_errors=True)
        os.makedirs(self._spill_dir, exist_ok=True)
        with self._lock:
            self._locations.clear()
            self._offsets.clear()
