"""Resilient Distributed Datasets: lazy, partitioned, lineage-tracked.

The subset of Spark's RDD API that GPF's Processes, the ADAM baseline
and the examples call, with the same narrow/wide dependency semantics
(``tests/engine/test_rdd.py`` pins the public names).  Wide (shuffle)
dependencies cut stage boundaries; everything else fuses into a
pipeline of per-partition iterators, so a ``map`` after a ``filter``
costs one pass, as in Spark.

Elements of key-value RDDs are 2-tuples ``(key, value)``.
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TYPE_CHECKING

from repro.engine.faults import PartitionIndexError
from repro.engine.metrics import TaskMetrics

if TYPE_CHECKING:
    from repro.engine.context import GPFContext
    from repro.engine.serializers import Serializer


# ---------------------------------------------------------------------------
# Partitioners
# ---------------------------------------------------------------------------
class Partitioner:
    """Maps a key to a reduce-partition index."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError("partitioner needs at least one partition")
        self.num_partitions = num_partitions

    def __call__(self, key: object) -> int:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__


def _canonical_key_bytes(key: object) -> bytes:
    """Type-tagged canonical encoding of a shuffle key.

    Equal keys must encode identically even across interpreter
    boundaries, so numeric types are normalized the way ``==`` compares
    them (``True == 1 == 1.0``) and containers are length-prefixed to
    keep the encoding unambiguous.  The key types shuffles use (``str``,
    ``int``, ``bool`` and tuples of them) are dispatched on their exact
    type, a tuple's scalar items inline; anything else takes
    :func:`_other_key_bytes`.
    """
    kind = type(key)
    if kind is str:
        return b"s" + key.encode("utf-8")
    if kind is int:
        return b"i%d" % key
    if kind is not tuple and kind is not list:
        return _other_key_bytes(key)
    parts = [b"t"]
    for item in key:
        kind = type(item)
        if kind is str:
            part = b"s" + item.encode("utf-8")
        elif kind is int:
            part = b"i%d" % item
        elif kind is bool:
            part = b"i1" if item else b"i0"
        else:
            part = _canonical_key_bytes(item)
        parts += (len(part).to_bytes(4, "big"), part)
    return b"".join(parts)


def _other_key_bytes(key: object) -> bytes:
    """:func:`_canonical_key_bytes` of every key that is not exactly a
    ``str``, ``int``, tuple or list: ``None``, floats, bytes, subclasses."""
    if key is None:
        return b"z"
    if isinstance(key, bool):
        key = int(key)
    if isinstance(key, float) and key.is_integer():
        key = int(key)
    if isinstance(key, int):
        return b"i" + str(key).encode("ascii")
    if isinstance(key, float):
        return b"f" + repr(key).encode("ascii")
    if isinstance(key, str):
        return b"s" + key.encode("utf-8")
    if isinstance(key, bytes):
        return b"b" + key
    if isinstance(key, (tuple, list)):
        return _canonical_key_bytes(list(key))
    # Last resort for exotic key types: their repr (deterministic for
    # anything with a value-based repr; builtin hash() would not be).
    return b"o" + repr(key).encode("utf-8", "backslashreplace")


def stable_hash(key: object) -> int:
    """Process-portable key hash (crc32 of the canonical encoding).

    Builtin ``hash()`` is salted per interpreter (PYTHONHASHSEED), so two
    spawn-started workers would bucket the same key differently; every
    shuffle-placement decision goes through this instead.
    """
    return zlib.crc32(_canonical_key_bytes(key))


class HashPartitioner(Partitioner):
    def __call__(self, key: object) -> int:
        return stable_hash(key) % self.num_partitions


class RangePartitioner(Partitioner):
    """Partitions by sorted key ranges; bounds has num_partitions-1 entries."""

    def __init__(self, bounds: Sequence[object]):
        super().__init__(len(bounds) + 1)
        self.bounds = list(bounds)

    def __call__(self, key: object) -> int:
        return bisect.bisect_right(self.bounds, key)


class FuncPartitioner(Partitioner):
    """Partition via an arbitrary key -> index function.

    GPF's PartitionInfo-based genomic partitioner (paper §4.4) plugs in
    here: the function is the (contig, position) -> partition-id map.
    """

    def __init__(self, num_partitions: int, func: Callable[[object], int]):
        super().__init__(num_partitions)
        self.func = func

    def __call__(self, key: object) -> int:
        index = self.func(key)
        if not 0 <= index < self.num_partitions:
            raise PartitionIndexError(index, self.num_partitions)
        return index


# ---------------------------------------------------------------------------
# Dependencies
# ---------------------------------------------------------------------------
@dataclass
class ShuffleDependency:
    """A wide dependency: the parent's output is re-bucketed by key."""

    parent: "RDD"
    partitioner: Partitioner
    #: Optional map-side combiner: list[(k, v)] -> list[(k, combined)].
    map_side_combine: Callable[[list[tuple]], list[tuple]] | None = None
    shuffle_id: int | None = None  # assigned when the map stage runs


# ---------------------------------------------------------------------------
# RDD base
# ---------------------------------------------------------------------------
class RDD:
    """Base class; concrete subclasses implement :meth:`compute`."""

    def __init__(
        self,
        ctx: "GPFContext",
        num_partitions: int,
        parents: Sequence["RDD"] = (),
        shuffle_deps: Sequence[ShuffleDependency] = (),
        name: str = "",
    ):
        self.ctx = ctx
        self.num_partitions = num_partitions
        self.id = ctx._register_rdd(self)
        self.parents = list(parents)
        self.shuffle_deps = list(shuffle_deps)
        self.name = name or type(self).__name__
        self._persisted = False

    # -- evaluation -------------------------------------------------------
    def compute(self, split: int, task: TaskMetrics) -> list:
        raise NotImplementedError

    def iterator(self, split: int, task: TaskMetrics) -> list:
        """Compute a partition, honouring the cache."""
        if self._persisted:
            cached = self.ctx._cache_get(self, split)
            if cached is not None:
                return cached
            data = self.compute(split, task)
            self.ctx._cache_put(self, split, data)
            return data
        return self.compute(split, task)

    def persist(self) -> "RDD":
        """Keep computed partitions in (serialized) memory — MEMORY_SER."""
        self._persisted = True
        return self

    @property
    def serializer(self) -> "Serializer":
        return self.ctx.serializer

    # -- narrow transformations ---------------------------------------------
    def map_partitions(self, func: Callable[[list], Iterable]) -> "RDD":
        return MapPartitionsRDD(self, lambda split, part: func(part))

    def map_partitions_with_index(
        self, func: Callable[[int, list], Iterable]
    ) -> "RDD":
        return MapPartitionsRDD(self, func)

    def map(self, func: Callable) -> "RDD":
        return MapPartitionsRDD(self, lambda split, part: [func(x) for x in part])

    def flat_map(self, func: Callable) -> "RDD":
        def apply(split: int, part: list) -> list:
            out: list = []
            for x in part:
                out.extend(func(x))
            return out

        return MapPartitionsRDD(self, apply)

    def filter(self, pred: Callable[[object], bool]) -> "RDD":
        return MapPartitionsRDD(self, lambda split, part: [x for x in part if pred(x)])

    def key_by(self, func: Callable) -> "RDD":
        return self.map(lambda x: (func(x), x))

    def map_values(self, func: Callable) -> "RDD":
        return self.map(lambda kv: (kv[0], func(kv[1])))

    def values(self) -> "RDD":
        return self.map(lambda kv: kv[1])

    def zip_partitions(self, other: "RDD", func: Callable[[list, list], list]) -> "RDD":
        return ZipPartitionsRDD(self, other, func)

    # -- wide transformations -----------------------------------------------
    def partition_by(self, partitioner: Partitioner) -> "RDD":
        """Shuffle key-value pairs so each key lands on partitioner(key)."""
        return ShuffledRDD(self, partitioner)

    def group_by_key(self) -> "RDD":
        """Shuffle then group values per key: (k, [v, ...])."""
        shuffled = ShuffledRDD(self, HashPartitioner(self.num_partitions))

        def group(split: int, pairs: list) -> list:
            groups: dict = {}
            for k, v in pairs:
                groups.setdefault(k, []).append(v)
            return list(groups.items())

        return MapPartitionsRDD(shuffled, group)

    def reduce_by_key(self, func: Callable) -> "RDD":
        """Associative per-key reduction with map-side combining."""

        def combine(pairs: list) -> list:
            acc: dict = {}
            for k, v in pairs:
                acc[k] = func(acc[k], v) if k in acc else v
            return list(acc.items())

        shuffled = ShuffledRDD(
            self, HashPartitioner(self.num_partitions), map_side_combine=combine
        )

        def merge(split: int, pairs: list) -> list:
            acc: dict = {}
            for k, v in pairs:
                acc[k] = func(acc[k], v) if k in acc else v
            return list(acc.items())

        return MapPartitionsRDD(shuffled, merge)

    def sort_by(self, key_func: Callable) -> "RDD":
        """Total sort: sample keys, range-partition, sort within partitions."""
        num_partitions = self.num_partitions
        if num_partitions == 1:
            bounds: list = []
        else:
            sample = self.map(key_func).collect()
            sample.sort()
            if not sample:
                bounds = []
            else:
                step = max(1, len(sample) // num_partitions)
                bounds = [
                    sample[i * step]
                    for i in range(1, num_partitions)
                    if i * step < len(sample)
                ]
        partitioner = RangePartitioner(bounds) if bounds else HashPartitioner(1)
        keyed = self.map(lambda x: (key_func(x), x))
        shuffled = ShuffledRDD(keyed, partitioner)
        return MapPartitionsRDD(
            shuffled,
            lambda split, pairs: [v for _, v in sorted(pairs, key=lambda kv: kv[0])],
        )

    # -- actions -----------------------------------------------------------
    def collect(self) -> list:
        """Materialize every partition and concatenate (driver memory!)."""
        parts = self.ctx.run_job(self)
        out: list = []
        for part in parts:
            out.extend(part)
        return out

    # -- misc --------------------------------------------------------------
    def set_name(self, name: str) -> "RDD":
        self.name = name
        return self

    def __repr__(self) -> str:
        return f"<{self.name} id={self.id} partitions={self.num_partitions}>"


# ---------------------------------------------------------------------------
# Concrete RDDs
# ---------------------------------------------------------------------------
class ParallelCollectionRDD(RDD):
    """Source RDD over an in-memory collection, sliced into partitions."""

    def __init__(self, ctx: "GPFContext", data: Sequence, num_partitions: int):
        super().__init__(ctx, num_partitions, name="parallelize")
        data = list(data)
        self._slices: list[list] = [[] for _ in range(num_partitions)]
        if data:
            n = len(data)
            for i in range(num_partitions):
                start = i * n // num_partitions
                end = (i + 1) * n // num_partitions
                self._slices[i] = data[start:end]

    def compute(self, split: int, task: TaskMetrics) -> list:
        return list(self._slices[split])


class MapPartitionsRDD(RDD):
    """Narrow transformation: func(split, parent_partition) -> elements."""

    def __init__(self, parent: RDD, func: Callable[[int, list], Iterable]):
        super().__init__(parent.ctx, parent.num_partitions, parents=[parent])
        self._func = func

    def compute(self, split: int, task: TaskMetrics) -> list:
        return list(self._func(split, self.parents[0].iterator(split, task)))


class ZipPartitionsRDD(RDD):
    """Pairwise partition zip of two equally-partitioned RDDs."""

    def __init__(self, left: RDD, right: RDD, func: Callable[[list, list], list]):
        if left.num_partitions != right.num_partitions:
            raise ValueError(
                "zip_partitions requires equal partition counts "
                f"({left.num_partitions} vs {right.num_partitions})"
            )
        super().__init__(left.ctx, left.num_partitions, parents=[left, right])
        self._func = func

    def compute(self, split: int, task: TaskMetrics) -> list:
        return list(
            self._func(
                self.parents[0].iterator(split, task),
                self.parents[1].iterator(split, task),
            )
        )


class ShuffledRDD(RDD):
    """Wide dependency: reads the shuffle written by its map stage."""

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        map_side_combine: Callable[[list], list] | None = None,
    ):
        dep = ShuffleDependency(parent, partitioner, map_side_combine)
        super().__init__(
            parent.ctx,
            partitioner.num_partitions,
            parents=[parent],
            shuffle_deps=[dep],
            name="shuffled",
        )
        self.partitioner = partitioner

    def compute(self, split: int, task: TaskMetrics) -> list:
        dep = self.shuffle_deps[0]
        if dep.shuffle_id is None:
            raise RuntimeError(
                f"shuffle for RDD {self.id} has not been written; "
                "scheduler must run the map stage first"
            )
        return self.ctx.shuffle_manager.read(
            dep.shuffle_id, split, self.serializer, task
        )
