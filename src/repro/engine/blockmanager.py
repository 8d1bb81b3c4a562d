"""Block manager: the persisted-partition cache with a memory cap.

"Given the considerable volume of genomic dataset, it is usually not
sufficient to fit the data in the memory" (paper §4.1) — which is why
GPF persists RDDs in *serialized* form and why Spark's MEMORY_AND_DISK
level exists.  This block manager stores serialized partition blobs in
memory up to ``memory_limit`` bytes and evicts least-recently-used blocks
to spill files; reads transparently fall back to disk.  Eviction and
disk reads are counted so benches can show the memory/IO trade-off.

A spill file is a cache, not a store: it is written in place with no
fsync, because the index of spilled blocks lives only in this process
and nothing reads the file after a crash.  It is still framed with a
crc32 checksum, so a torn or corrupt file is *detected*, counted in
:attr:`BlockStats.corrupt_reads`, and treated as a miss: the engine
recomputes the partition from lineage instead of feeding garbage to the
next stage (or crashing the run).  The durable store is the run journal
(:mod:`repro.engine.journal`), which writes through
:func:`write_block_file`.
"""

from __future__ import annotations

import os
import shutil
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass

#: Magic prefix of every checksummed block file.
BLOCK_MAGIC = b"GPFB"


class BlockCorruptionError(RuntimeError):
    """A block file failed its crc32 verification."""


def frame_block(blob: bytes) -> bytes:
    """Wrap a blob in the on-disk frame: magic + crc32 + payload."""
    return BLOCK_MAGIC + zlib.crc32(blob).to_bytes(4, "big") + blob


def unframe_block(data: bytes, where: str = "") -> bytes:
    """Verify and strip the frame; raises :class:`BlockCorruptionError`."""
    if len(data) < 8 or data[:4] != BLOCK_MAGIC:
        raise BlockCorruptionError(f"not a GPF block file: {where or '<bytes>'}")
    expected = int.from_bytes(data[4:8], "big")
    blob = data[8:]
    actual = zlib.crc32(blob)
    if actual != expected:
        raise BlockCorruptionError(
            f"crc32 mismatch in {where or '<bytes>'}: "
            f"stored {expected:#010x}, computed {actual:#010x}"
        )
    return blob


def fsync_directory(path: str) -> None:
    """fsync a directory so a just-renamed entry survives a crash.

    POSIX only persists the rename itself once the *directory* is
    synced; fsyncing the file alone leaves a window where the entry
    vanishes on power loss.  Best-effort on platforms whose directory
    handles reject fsync.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_block_file(
    path: str, blob: bytes, chaos=None, site: str = "journal.data.write"
) -> None:
    """Atomically and durably write a framed block file (tmp + fsync +
    rename + directory fsync).

    ``chaos`` is an optional :class:`repro.chaos.ChaosInjector`: the
    ``site`` hit models ENOSPC/EIO on open/write, ``site`` mangle rules
    model torn/short and bit-flipped writes (damaging the *framed*
    bytes, so the crc read path catches them), and ``site + ".fsync"``
    models fsync failure.
    """
    framed = frame_block(blob)
    if chaos is not None:
        chaos.hit(site, path=os.path.basename(path))
        framed = chaos.mangle(site, framed, path=os.path.basename(path))
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(framed)
        fh.flush()
        if chaos is not None:
            chaos.hit(site + ".fsync", path=os.path.basename(path))
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_directory(os.path.dirname(path) or ".")


def read_block_file(path: str, chaos=None, site: str = "block.read") -> bytes:
    """Read and verify a framed block file.

    Chaos ``site`` rules model read-side faults: a hit raises EIO, a
    mangle flips bytes of the framed data *before* crc verification —
    exercising exactly the corruption-detection path real bit rot would.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if chaos is not None:
        chaos.hit(site, path=os.path.basename(path))
        data = chaos.mangle(site, data, path=os.path.basename(path))
    return unframe_block(data, where=path)


@dataclass
class BlockStats:
    memory_blocks: int = 0
    disk_blocks: int = 0
    memory_bytes: int = 0
    disk_bytes: int = 0
    evictions: int = 0
    disk_reads: int = 0
    hits: int = 0
    misses: int = 0
    #: Spilled blocks that failed crc32 verification.
    corrupt_reads: int = 0
    #: Spill writes that failed (disk full / I/O error); the block is
    #: dropped instead — eager eviction, recompute-on-demand.
    spill_errors: int = 0
    #: Decoded (logical) size of the memory-resident blocks — what the
    #: same partitions would occupy as Python record lists.  Together
    #: with ``memory_bytes`` (the compressed resident size) this is the
    #: working-set-reduction gauge pair.
    logical_bytes: int = 0


class BlockManager:
    """LRU memory cache with disk spill for serialized partition blobs."""

    def __init__(
        self,
        spill_dir: str,
        memory_limit: int | None = None,
        events=None,
        chaos=None,
    ):
        #: Optional EventBus: evictions and corruption detections are rare
        #: and diagnostic, so they are published as events (counters stay
        #: in BlockStats and are folded into the telemetry snapshot).
        self._events = events
        #: Optional ChaosInjector threaded into every disk touch.
        self._chaos = chaos
        self._dir = os.path.join(spill_dir, "blocks")
        os.makedirs(self._dir, exist_ok=True)
        self._limit = memory_limit
        self._lock = threading.Lock()
        #: key -> blob, most-recently-used last.
        self._memory: "OrderedDict[tuple[int, int], bytes]" = OrderedDict()
        self._memory_bytes = 0
        #: key -> decoded (logical) byte estimate, for the ratio gauges.
        self._logical: dict[tuple[int, int], int] = {}
        #: key -> payload bytes of a block spilled to disk.
        self._on_disk: dict[tuple[int, int], int] = {}
        #: Blocks chosen for eviction whose spill write is in flight.
        #: Reads serve these from memory; evict_rdd cancels them by
        #: removing the entry (the writer then discards its stale file).
        self._spilling: dict[tuple[int, int], bytes] = {}
        self.stats = BlockStats()

    # -- public ------------------------------------------------------------
    def put(
        self, key: tuple[int, int], blob: bytes, logical_bytes: int | None = None
    ) -> None:
        """Cache one serialized (compressed) partition blob.

        ``logical_bytes`` is the decoded-footprint estimate used by the
        memory-pressure gauges; the eviction limit itself is enforced on
        ``len(blob)`` — compressed bytes are what occupy RAM.
        """
        with self._lock:
            if key in self._memory:
                self._memory_bytes -= len(self._memory.pop(key))
            self._memory[key] = blob
            self._memory_bytes += len(blob)
            self._logical[key] = (
                logical_bytes if logical_bytes is not None else len(blob)
            )
            victims = self._select_victims()
            self._refresh_stats()
        # Spill writes happen *outside* the lock: a slow disk must not
        # stall every other cache operation (this mirrors the PR-4 fix
        # that moved the eviction publish out of the critical section).
        evicted: list[tuple[int, int]] = []
        degraded: list[tuple[tuple[int, int], str]] = []
        for vkey, vblob in victims:
            path = self._block_path(vkey)
            try:
                self._write_spill(path, vblob)
            except OSError as exc:
                # Disk full (or dying): degrade spill to eager eviction.
                # The block is dropped entirely — a later get() misses and
                # the partition recomputes from lineage, instead of the
                # whole run crashing on a cache write.
                with self._lock:
                    self._spilling.pop(vkey, None)
                    self._on_disk.pop(vkey, None)
                    self.stats.spill_errors += 1
                    self._refresh_stats()
                degraded.append((vkey, f"{type(exc).__name__}: {exc}"))
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            with self._lock:
                cancelled = self._spilling.pop(vkey, None) is None
                if not cancelled:
                    self._on_disk[vkey] = len(vblob)
                    self.stats.evictions += 1
                    evicted.append(vkey)
                    self._refresh_stats()
            if cancelled:
                # evict_rdd() cancelled this spill mid-write; the file
                # we just produced is already garbage.
                try:
                    os.unlink(path)
                except OSError:
                    pass
        if self._events is not None:
            for rdd_id, partition in evicted:
                self._events.publish("block.evict", rdd_id=rdd_id, partition=partition)
            for (rdd_id, partition), reason in degraded:
                self._events.publish(
                    "block.spill_degraded",
                    reason=reason,
                    rdd_id=rdd_id,
                    partition=partition,
                )

    def get(self, key: tuple[int, int]) -> bytes | None:
        with self._lock:
            blob = self._memory.get(key)
            if blob is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                return blob
            blob = self._spilling.get(key)
            if blob is not None:
                # Mid-spill: the blob is still authoritative in memory.
                self.stats.hits += 1
                return blob
            on_disk = key in self._on_disk
            if not on_disk:
                self.stats.misses += 1
                return None
            path = self._block_path(key)
        # Disk read outside the lock: other threads keep hitting the
        # memory tier while this one waits on I/O.
        try:
            blob = read_block_file(path, self._chaos, site="block.read")
        except (BlockCorruptionError, OSError):
            # A corrupt spill file is a miss, not a crash: the caller
            # recomputes the partition from lineage.  (A concurrent
            # evict_rdd unlinking the file lands here too — that is a
            # plain miss, counted as corrupt only if the frame was bad.)
            with self._lock:
                self.stats.corrupt_reads += 1
                self.stats.misses += 1
                self._on_disk.pop(key, None)
            self._publish_corrupt(path)
            return None
        with self._lock:
            self.stats.hits += 1
            self.stats.disk_reads += 1
        return blob

    def _publish_corrupt(self, where: str) -> None:
        if self._events is not None:
            self._events.publish("block.corrupt", where=where)

    def contains(self, key: tuple[int, int]) -> bool:
        with self._lock:
            return (
                key in self._memory
                or key in self._spilling
                or key in self._on_disk
            )

    def evict_rdd(self, rdd_id: int) -> None:
        """Drop every block of one RDD (context reuse between jobs)."""
        doomed: list[str] = []
        with self._lock:
            for key in [k for k in self._memory if k[0] == rdd_id]:
                self._memory_bytes -= len(self._memory.pop(key))
            for key in [k for k in self._spilling if k[0] == rdd_id]:
                # Cancel the in-flight spill; the writer unlinks its file.
                del self._spilling[key]
            for key in [k for k in self._on_disk if k[0] == rdd_id]:
                del self._on_disk[key]
                doomed.append(self._block_path(key))
            for key in [k for k in self._logical if k[0] == rdd_id]:
                del self._logical[key]
            self._refresh_stats()
        # Unlink outside the lock: directory I/O must not block readers.
        for path in doomed:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass

    def total_bytes(self) -> int:
        with self._lock:
            return (
                self._memory_bytes
                + sum(len(b) for b in self._spilling.values())
                + sum(self._on_disk.values())
            )

    # -- lifecycle ------------------------------------------------------------
    def cleanup(self) -> None:
        """Remove every on-disk artifact (context shutdown)."""
        with self._lock:
            self._memory.clear()
            self._memory_bytes = 0
            self._logical.clear()
            self._on_disk.clear()
            self._spilling.clear()
        shutil.rmtree(self._dir, ignore_errors=True)

    # -- internals ------------------------------------------------------------
    def _write_spill(self, path: str, blob: bytes) -> None:
        """Write one evicted block as a single crc-framed write, in place.

        No tmp file, fsync or rename: a torn file fails its crc on read
        and counts as a miss.  Chaos ``block.spill`` rules model
        ENOSPC/EIO (hit) and torn or bit-flipped writes (mangle).
        """
        framed = frame_block(blob)
        if self._chaos is not None:
            name = os.path.basename(path)
            self._chaos.hit("block.spill", path=name)
            framed = self._chaos.mangle("block.spill", framed, path=name)
        with open(path, "wb") as fh:
            fh.write(framed)

    def _select_victims(self) -> list[tuple[tuple[int, int], bytes]]:
        """Pop LRU blocks past the limit into the in-flight spill set.

        Called under the lock; the actual file writes happen in
        :meth:`put` after release.
        """
        victims: list[tuple[tuple[int, int], bytes]] = []
        if self._limit is None:
            return victims
        while self._memory_bytes > self._limit and len(self._memory) > 1:
            key, blob = self._memory.popitem(last=False)  # LRU
            self._memory_bytes -= len(blob)
            self._spilling[key] = blob
            victims.append((key, blob))
        return victims

    def _refresh_stats(self) -> None:
        self.stats.memory_blocks = len(self._memory)
        self.stats.disk_blocks = len(self._on_disk)
        self.stats.memory_bytes = self._memory_bytes
        self.stats.disk_bytes = sum(self._on_disk.values())
        self.stats.logical_bytes = sum(
            self._logical.get(k, 0) for k in self._memory
        ) + sum(self._logical.get(k, 0) for k in self._spilling)

    def _block_path(self, key: tuple[int, int]) -> str:
        return os.path.join(self._dir, f"rdd{key[0]}_p{key[1]}.blk")
