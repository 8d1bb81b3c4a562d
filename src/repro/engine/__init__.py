"""An in-memory dataflow engine: the reproduction's Spark substitute.

GPF's contributions live *above* the RDD API — its compression plugs in as
a serializer, its DAG optimizer rewrites Process graphs before any RDD
operation is submitted, and its dynamic partitioner is an ordinary
``partition_by``.  This package supplies that API surface with the same
cost structure as Spark:

- **Lazy RDDs** with narrow/wide dependencies; the scheduler cuts stages at
  shuffle boundaries exactly as Spark's DAGScheduler does.  Only the
  operators GPF's Processes, the ADAM baseline and the examples call are
  kept (a test pins the list): ``map``, ``flat_map``, ``filter``,
  ``map_partitions(_with_index)``, ``key_by``, ``map_values``,
  ``values``, ``zip_partitions``, ``partition_by``, ``group_by_key``,
  ``reduce_by_key``, ``sort_by``, ``collect``, ``persist``.
- **Real shuffles**: map tasks hash-partition their output and *write it to
  disk*, one spill file per map task with an index of per-reduce byte
  ranges (Spark's sort-shuffle layout); reduce tasks read their ranges
  back.  Shuffled bytes,
  disk-blocked time, and (modelled) network-blocked time are recorded per
  task — the instrumentation behind the paper's blocked-time analysis
  (Fig. 12) and shuffle accounting (Table 4).
- **Two serializers** (``compact`` for Kryo, ``gpf`` for the paper's
  genomic codec) used for both caching (MEMORY_SER) and shuffle blocks.
- **Executor backends**: ``serial`` (deterministic, for tests),
  ``threads`` (NumPy kernels release the GIL, so threads give genuine
  overlap on the vectorized stages), and ``cluster`` (a socket worker
  fleet in the ``dist`` package, imported only when selected).
- **Broadcast variables** for the reference genome and PartitionInfo.
- **One durable store**: the run journal (``repro.engine.journal``);
  the block cache's disk spill is a cache that a crash simply loses.
"""

from repro.engine.context import GPFContext, EngineConfig
from repro.engine.rdd import RDD
from repro.engine.broadcast import Broadcast
from repro.engine.metrics import TaskMetrics, StageMetrics, JobMetrics, MetricsRegistry
from repro.engine.files import FastqPairFileRDD, load_fastq_pair_lazy
from repro.engine.faults import InjectedFault, TaskFailedError
from repro.engine.blockmanager import BlockManager
from repro.engine.serializers import (
    Serializer,
    CompactSerializer,
    GpfSerializer,
    get_serializer,
)

__all__ = [
    "GPFContext",
    "EngineConfig",
    "RDD",
    "Broadcast",
    "TaskMetrics",
    "StageMetrics",
    "JobMetrics",
    "MetricsRegistry",
    "Serializer",
    "CompactSerializer",
    "GpfSerializer",
    "get_serializer",
    "FastqPairFileRDD",
    "load_fastq_pair_lazy",
    "InjectedFault",
    "TaskFailedError",
    "BlockManager",
]
