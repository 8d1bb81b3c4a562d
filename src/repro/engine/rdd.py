"""Resilient Distributed Datasets: lazy, partitioned, lineage-tracked.

The subset of Spark's RDD API that GPF's Processes use, with the same
narrow/wide dependency semantics.  Wide (shuffle) dependencies cut stage
boundaries; everything else fuses into a pipeline of per-partition
iterators, so a ``map`` after a ``filter`` costs one pass, as in Spark.

Elements of key-value RDDs are 2-tuples ``(key, value)``.
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TYPE_CHECKING

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
    keep the encoding unambiguous.
    """
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
        parts = [_canonical_key_bytes(item) for item in key]
        return b"t" + b"".join(
            len(part).to_bytes(4, "big") + part for part in parts
        )
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
            raise ValueError(
                f"partition function returned {index}, valid range is "
                f"[0, {self.num_partitions})"
            )
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
        self._checkpointed = False
        #: Lineage backup taken by :meth:`checkpoint` — consulted only to
        #: recompute a partition whose checkpoint file went missing or
        #: failed its crc32 check.
        self._checkpoint_lineage: tuple[list, list] | None = None

    # -- evaluation -------------------------------------------------------
    def compute(self, split: int, task: TaskMetrics) -> list:
        raise NotImplementedError

    def iterator(self, split: int, task: TaskMetrics) -> list:
        """Compute a partition, honouring checkpoints and the cache."""
        if self._checkpointed:
            data = self.ctx._checkpoint_get(self, split)
            if data is not None:
                return data
            return self._recompute_checkpoint(split, task)
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

    def unpersist(self) -> "RDD":
        """Drop cached partitions; future actions recompute from lineage."""
        self._persisted = False
        self.ctx._cache_evict(self)
        return self

    def checkpoint(self) -> "RDD":
        """Materialize every partition to the durable checkpoint store and
        truncate lineage.

        Spark semantics, eagerly: partitions are computed now, written as
        crc32-framed files through the block manager, and the parent /
        shuffle dependencies are cut so downstream stages read from the
        checkpoint instead of replaying the (possibly expensive) lineage.
        The severed lineage is kept as a private backup solely to
        recompute a partition whose checkpoint file is later found
        missing or corrupt.
        """
        if self._checkpointed:
            return self
        for split, data in enumerate(self.ctx.run_job(self)):
            self.ctx._checkpoint_put(self, split, data)
        self._checkpoint_lineage = (self.parents, self.shuffle_deps)
        self.parents = []
        self.shuffle_deps = []
        self._checkpointed = True
        self.ctx.events.publish(
            "rdd.checkpoint", rdd_id=self.id, partitions=self.num_partitions
        )
        return self

    @property
    def is_checkpointed(self) -> bool:
        return self._checkpointed

    def _recompute_checkpoint(self, split: int, task: TaskMetrics) -> list:
        """Checkpoint partition lost or corrupt: temporarily restore the
        severed lineage, recompute, re-materialize, re-truncate."""
        if self._checkpoint_lineage is None:
            raise RuntimeError(
                f"checkpoint partition {split} of RDD {self.id} is missing "
                "and no lineage backup exists to recompute it"
            )
        self.ctx.events.publish(
            "checkpoint.recompute", rdd_id=self.id, partition=split
        )
        self.ctx.metrics.inc("checkpoint.recomputes")
        self.parents, self.shuffle_deps = self._checkpoint_lineage
        try:
            data = self.compute(split, task)
        finally:
            self.parents = []
            self.shuffle_deps = []
        self.ctx._checkpoint_put(self, split, data)
        return data

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

    def flat_map_values(self, func: Callable) -> "RDD":
        def apply(split: int, part: list) -> list:
            out = []
            for k, v in part:
                out.extend((k, item) for item in func(v))
            return out

        return MapPartitionsRDD(self, apply)

    def values(self) -> "RDD":
        return self.map(lambda kv: kv[1])

    def keys(self) -> "RDD":
        return self.map(lambda kv: kv[0])

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.ctx, [self, other])

    def zip_partitions(self, other: "RDD", func: Callable[[list, list], list]) -> "RDD":
        return ZipPartitionsRDD(self, other, func)

    def glom(self) -> "RDD":
        """Each partition becomes a single list element."""
        return MapPartitionsRDD(self, lambda split, part: [part])

    # -- wide transformations -----------------------------------------------
    def partition_by(self, partitioner: Partitioner) -> "RDD":
        """Shuffle key-value pairs so each key lands on partitioner(key)."""
        return ShuffledRDD(self, partitioner)

    def group_by_key(self, num_partitions: int | None = None) -> "RDD":
        """Shuffle then group values per key: (k, [v, ...])."""
        part = HashPartitioner(num_partitions or self.num_partitions)
        shuffled = ShuffledRDD(self, part)

        def group(split: int, pairs: list) -> list:
            groups: dict = {}
            for k, v in pairs:
                groups.setdefault(k, []).append(v)
            return list(groups.items())

        return MapPartitionsRDD(shuffled, group)

    def reduce_by_key(
        self, func: Callable, num_partitions: int | None = None
    ) -> "RDD":
        """Associative per-key reduction with map-side combining."""
        part = HashPartitioner(num_partitions or self.num_partitions)

        def combine(pairs: list) -> list:
            acc: dict = {}
            for k, v in pairs:
                acc[k] = func(acc[k], v) if k in acc else v
            return list(acc.items())

        shuffled = ShuffledRDD(self, part, map_side_combine=combine)

        def merge(split: int, pairs: list) -> list:
            acc: dict = {}
            for k, v in pairs:
                acc[k] = func(acc[k], v) if k in acc else v
            return list(acc.items())

        return MapPartitionsRDD(shuffled, merge)

    def cogroup(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        part = HashPartitioner(num_partitions or max(self.num_partitions, other.num_partitions))
        return CoGroupedRDD(self.ctx, [self, other], part)

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        def emit(kv: tuple) -> list:
            key, (left, right) = kv
            return [(key, (l, r)) for l in left for r in right]

        return self.cogroup(other, num_partitions).flat_map(emit)

    def distinct(self, num_partitions: int | None = None) -> "RDD":
        return (
            self.map(lambda x: (x, None))
            .reduce_by_key(lambda a, b: a, num_partitions)
            .keys()
        )

    def aggregate_by_key(
        self,
        zero,
        seq_func: Callable,
        comb_func: Callable,
        num_partitions: int | None = None,
    ) -> "RDD":
        """Per-key aggregation with distinct in-partition and merge steps.

        ``seq_func(acc, value)`` folds values into a per-partition
        accumulator seeded from ``zero``; ``comb_func(acc_a, acc_b)``
        merges accumulators across partitions.  ``zero`` must be
        immutable or cheaply copyable via its constructor semantics (we
        deep-copy with pickle to keep accumulators independent).
        """
        import copy

        part = HashPartitioner(num_partitions or self.num_partitions)

        def combine(pairs: list) -> list:
            acc: dict = {}
            for k, v in pairs:
                if k not in acc:
                    acc[k] = copy.deepcopy(zero)
                acc[k] = seq_func(acc[k], v)
            return list(acc.items())

        shuffled = ShuffledRDD(self, part, map_side_combine=combine)

        def merge(split: int, pairs: list) -> list:
            acc: dict = {}
            for k, v in pairs:
                acc[k] = comb_func(acc[k], v) if k in acc else v
            return list(acc.items())

        return MapPartitionsRDD(shuffled, merge)

    def fold_by_key(
        self, zero, func: Callable, num_partitions: int | None = None
    ) -> "RDD":
        return self.aggregate_by_key(zero, func, func, num_partitions)

    def subtract(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Elements of self not present in other (set difference)."""
        tagged = self.map(lambda x: (x, 0)).cogroup(
            other.map(lambda x: (x, 1)), num_partitions
        )
        return tagged.flat_map(
            lambda kv: [kv[0]] * len(kv[1][0]) if not kv[1][1] else []
        )

    def intersection(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Distinct elements present in both RDDs."""
        grouped = self.map(lambda x: (x, 0)).cogroup(
            other.map(lambda x: (x, 1)), num_partitions
        )
        return grouped.flat_map(
            lambda kv: [kv[0]] if kv[1][0] and kv[1][1] else []
        )

    def sample(
        self, fraction: float, seed: int = 0, with_replacement: bool = False
    ) -> "RDD":
        """Bernoulli (or Poisson, with replacement) sample of the RDD.

        Deterministic given the seed, independent of partitioning changes
        upstream of this RDD's partition boundaries.
        """
        if fraction < 0:
            raise ValueError("fraction must be non-negative")
        import numpy as _np

        def sample_partition(split: int, part: list) -> list:
            rng = _np.random.default_rng((seed, split))
            if with_replacement:
                counts = rng.poisson(fraction, size=len(part))
                out = []
                for item, count in zip(part, counts):
                    out.extend([item] * int(count))
                return out
            mask = rng.random(len(part)) < fraction
            return [item for item, keep in zip(part, mask) if keep]

        return MapPartitionsRDD(self, sample_partition)

    def zip_with_index(self) -> "RDD":
        """Pair each element with its global index (two-pass, like Spark)."""
        counts = [len(p) for p in self.glom().collect()]
        offsets = [0]
        for c in counts[:-1]:
            offsets.append(offsets[-1] + c)

        def index_partition(split: int, part: list) -> list:
            base = offsets[split]
            return [(item, base + i) for i, item in enumerate(part)]

        return MapPartitionsRDD(self, index_partition)

    def coalesce(self, num_partitions: int) -> "RDD":
        """Reduce partition count *without* a shuffle (narrow merge).

        Adjacent partitions are concatenated; asking for more partitions
        than exist is a no-op (use :meth:`repartition` to grow).
        """
        if num_partitions <= 0:
            raise ValueError("need at least one partition")
        if num_partitions >= self.num_partitions:
            return self
        return CoalescedRDD(self, num_partitions)

    # -- more actions -------------------------------------------------------
    def top(self, n: int, key: Callable | None = None) -> list:
        """The n largest elements (descending), computed per partition."""
        import heapq

        key = key or (lambda x: x)
        partials = self.map_partitions(
            lambda part: heapq.nlargest(n, part, key=key)
        ).collect()
        return heapq.nlargest(n, partials, key=key)

    def take_ordered(self, n: int, key: Callable | None = None) -> list:
        """The n smallest elements (ascending), computed per partition."""
        import heapq

        key = key or (lambda x: x)
        partials = self.map_partitions(
            lambda part: heapq.nsmallest(n, part, key=key)
        ).collect()
        return heapq.nsmallest(n, partials, key=key)

    def lookup(self, key_value) -> list:
        """All values for a key in a key-value RDD."""
        return (
            self.filter(lambda kv: kv[0] == key_value).map(lambda kv: kv[1]).collect()
        )

    def histogram(self, buckets: int) -> tuple[list[float], list[int]]:
        """(bucket_edges, counts) over numeric elements, like Spark's."""
        if buckets <= 0:
            raise ValueError("need at least one bucket")
        bounds = self.map_partitions(
            lambda part: [(min(part), max(part))] if part else []
        ).collect()
        if not bounds:
            return [], []
        lo = min(b[0] for b in bounds)
        hi = max(b[1] for b in bounds)
        if lo == hi:
            return [float(lo), float(hi)], [self.count()]
        width = (hi - lo) / buckets
        edges = [lo + i * width for i in range(buckets + 1)]

        def count_partition(part: list) -> list:
            counts = [0] * buckets
            for x in part:
                idx = min(buckets - 1, int((x - lo) / width))
                counts[idx] += 1
            return [counts]

        partials = self.map_partitions(count_partition).collect()
        totals = [0] * buckets
        for counts in partials:
            for i, c in enumerate(counts):
                totals[i] += c
        return edges, totals

    def repartition(self, num_partitions: int) -> "RDD":
        """Round-robin reshuffle to exactly num_partitions partitions."""
        indexed = self.map_partitions_with_index(
            lambda split, part: [
                ((split * 2654435761 + i) % num_partitions, x)
                for i, x in enumerate(part)
            ]
        )
        shuffled = ShuffledRDD(indexed, FuncPartitioner(num_partitions, lambda k: k))
        return MapPartitionsRDD(shuffled, lambda split, pairs: [v for _, v in pairs])

    def sort_by(
        self,
        key_func: Callable,
        num_partitions: int | None = None,
        sample_size: int = 1000,
    ) -> "RDD":
        """Total sort: sample keys, range-partition, sort within partitions."""
        num_partitions = num_partitions or self.num_partitions
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

    def count(self) -> int:
        return sum(len(p) for p in self.ctx.run_job(self))

    def reduce(self, func: Callable) -> object:
        """Fold all elements with an associative binary function."""
        items = self.collect()
        if not items:
            raise ValueError("reduce of empty RDD")
        acc = items[0]
        for item in items[1:]:
            acc = func(acc, item)
        return acc

    def take(self, n: int) -> list:
        # Evaluates partitions lazily left-to-right until n items are found.
        """First n elements, evaluating partitions left to right lazily."""
        out: list = []
        for split in range(self.num_partitions):
            out.extend(self.ctx.run_job(self, partitions=[split])[0])
            if len(out) >= n:
                return out[:n]
        return out

    def first(self) -> object:
        """The first element; raises on an empty RDD."""
        items = self.take(1)
        if not items:
            raise ValueError("first() of empty RDD")
        return items[0]

    def count_by_key(self) -> dict:
        """Occurrences per key of a key-value RDD, as a dict."""
        counts: dict = {}
        for k, _ in self.collect():
            counts[k] = counts.get(k, 0) + 1
        return counts

    def collect_partitions(self) -> list[list]:
        return self.ctx.run_job(self)

    def foreach(self, func: Callable) -> None:
        for item in self.collect():
            func(item)

    def sum(self) -> float:
        """Sum of numeric elements (per-partition partials)."""
        partial = self.map_partitions(lambda p: [sum(p)]).collect()
        return float(sum(partial))

    def mean(self) -> float:
        """Arithmetic mean of numeric elements (per-partition partials)."""
        stats = self.map_partitions(lambda p: [(sum(p), len(p))]).collect()
        total = sum(s for s, _ in stats)
        count = sum(n for _, n in stats)
        if count == 0:
            raise ValueError("mean of empty RDD")
        return float(total / count)

    def save_as_text_file(self, directory: str) -> None:
        """Write one ``part-NNNNN`` text file per partition (str() lines)."""
        import os

        os.makedirs(directory, exist_ok=True)
        for split, part in enumerate(self.ctx.run_job(self)):
            path = os.path.join(directory, f"part-{split:05d}")
            with open(path, "w", encoding="utf-8") as fh:
                for item in part:
                    fh.write(str(item))
                    fh.write("\n")

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


class UnionRDD(RDD):
    """Concatenation: partitions of all parents side by side."""

    def __init__(self, ctx: "GPFContext", parents: Sequence[RDD]):
        super().__init__(
            ctx, sum(p.num_partitions for p in parents), parents=parents, name="union"
        )
        self._offsets: list[tuple[RDD, int]] = []
        for parent in parents:
            for i in range(parent.num_partitions):
                self._offsets.append((parent, i))

    def compute(self, split: int, task: TaskMetrics) -> list:
        parent, parent_split = self._offsets[split]
        return parent.iterator(parent_split, task)


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


class CoalescedRDD(RDD):
    """Narrow partition merge: child split i covers a contiguous run of
    parent splits (no shuffle, preserves order)."""

    def __init__(self, parent: RDD, num_partitions: int):
        super().__init__(
            parent.ctx, num_partitions, parents=[parent], name="coalesced"
        )
        n = parent.num_partitions
        self._ranges = [
            (i * n // num_partitions, (i + 1) * n // num_partitions)
            for i in range(num_partitions)
        ]

    def compute(self, split: int, task: TaskMetrics) -> list:
        start, end = self._ranges[split]
        out: list = []
        for parent_split in range(start, end):
            out.extend(self.parents[0].iterator(parent_split, task))
        return out


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


class CoGroupedRDD(RDD):
    """Groups values of N keyed parents by key: (k, ([vs0], [vs1], ...))."""

    def __init__(self, ctx: "GPFContext", parents: Sequence[RDD], partitioner: Partitioner):
        deps = [ShuffleDependency(p, partitioner) for p in parents]
        super().__init__(
            ctx,
            partitioner.num_partitions,
            parents=parents,
            shuffle_deps=deps,
            name="cogroup",
        )
        self.partitioner = partitioner

    def compute(self, split: int, task: TaskMetrics) -> list:
        n = len(self.shuffle_deps)
        groups: dict = {}
        for i, dep in enumerate(self.shuffle_deps):
            if dep.shuffle_id is None:
                raise RuntimeError("cogroup shuffle not yet written")
            pairs = self.ctx.shuffle_manager.read(
                dep.shuffle_id, split, self.serializer, task
            )
            for k, v in pairs:
                if k not in groups:
                    groups[k] = tuple([] for _ in range(n))
                groups[k][i].append(v)
        return list(groups.items())
