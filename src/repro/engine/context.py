"""GPFContext — the engine's SparkContext analogue.

Owns the executor, shuffle manager, serializer, block cache and metrics
registry.  One context per pipeline run; ``EngineConfig`` selects the
serializer (the paper's compression ablation) and the executor backend.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Sequence, TypeVar

from contextlib import contextmanager, suppress

from repro.compression.records import logical_size
from repro.engine.blockmanager import BlockManager
from repro.engine.broadcast import Broadcast
from repro.engine.executors import make_executor
from repro.engine.metrics import GC_TIMER, MetricsRegistry
from repro.engine.rdd import RDD, ParallelCollectionRDD
from repro.engine.scheduler import DAGScheduler
from repro.engine.serializers import get_serializer
from repro.engine.shuffle import ShuffleManager
from repro.formats.fastq import FastqPair, FastqRecord
from repro.formats.quarantine import QuarantineSink
from repro.formats.sam import SamRecord
from repro.obs import (
    EventBus,
    JsonlEventSink,
    Tracer,
    read_events,
    write_chrome_trace,
)

T = TypeVar("T")


@contextmanager
def _timed_counter(metrics: MetricsRegistry, name: str):
    """Charge a block of work's wall time to one counter."""
    started = time.perf_counter()
    try:
        yield
    finally:
        metrics.inc(name, time.perf_counter() - started)


@dataclass
class EngineConfig:
    """Tunable knobs of one engine instance.

    A value no caller varies is a constant beside the code that reads it
    instead (``engine.scheduler.RETRY_BACKOFF``,
    ``dist.worker.FETCH_TIMEOUT``);
    a test pins the field list, so a new knob arrives as a reviewed test
    change.
    """

    #: Default partition count for ``parallelize`` when not specified.
    default_parallelism: int = 4
    #: 'serial' (deterministic), 'threads' (NumPy kernels release the
    #: GIL), or 'cluster' (the socket worker fleet in the ``dist`` package).
    #: 'process' is accepted and selects the 'threads' pool (why: the
    #: ``repro.engine.executors`` module docstring).
    executor_backend: str = "serial"
    #: Pool threads for 'threads'/'process'; for 'cluster', the cap on
    #: concurrent in-flight ships from the driver.
    num_workers: int = 4
    #: 'compact' (Kryo analogue) or 'gpf' (the paper's genomic codec).
    serializer: str = "gpf"
    #: Directory for shuffle spill files; a temp dir when None.
    spill_dir: str | None = None
    #: Task attempts before a stage fails (Spark's spark.task.maxFailures).
    max_task_attempts: int = 4
    #: Memory budget (bytes) for the *compressed-resident* block cache —
    #: partitions live in §4.1 codec form and this caps their compressed
    #: footprint, so the effective in-memory capacity is the budget times
    #: the compression ratio; least-recently-used blocks spill to disk
    #: beyond it (MEMORY_AND_DISK).  None = unbounded.
    memory_budget: int | None = None
    #: Per-attempt task deadline in seconds; a hung attempt is abandoned
    #: with :class:`~repro.engine.faults.TaskTimeoutError` and retried.
    #: None disables the watchdog entirely (zero overhead).
    task_timeout: float | None = None
    #: Sampling-profiler interval in seconds.  When set, the context runs
    #: a :class:`~repro.obs.SamplingProfiler` that attributes collapsed
    #: stacks to the tracer's live spans, publishes ``profile.sample``
    #: events, and writes ``<trace_dir>/profile.folded`` at flush.  None
    #: (the default) = no sampler thread.
    profile_interval: float | None = None
    #: Trace output directory.  When set, the context subscribes a JSONL
    #: sink to its event bus: every event (spans included) is appended
    #: to ``<trace_dir>/events.jsonl``, and ``<trace_dir>/trace.json``
    #: (Chrome-trace/Perfetto) is derived from it on ``stop()``.  The
    #: tracer runs either way; None (the default) leaves the bus without
    #: a subscriber, so no event is built.
    trace_dir: str | None = None
    #: Chaos configuration: a :class:`repro.chaos.ChaosPlan` (or an
    #: already-built injector).  When set, a seeded ChaosInjector is
    #: wired into the block manager, shuffle manager, journal, and the
    #: scheduler's task-attempt hook.  None = no injection, no overhead.
    chaos: object | None = None
    #: Listen address (``"HOST:PORT"``) of the cluster transport's fleet
    #: server; ``"127.0.0.1:0"`` (an ephemeral loopback port) when None.
    #: Only read by ``executor_backend="cluster"``.
    cluster_listen: str | None = None
    #: Workers the cluster transport waits for before shipping its first
    #: task; with zero registered after ``cluster_wait`` seconds, tasks
    #: run inline on the driver (counted as ``executor.fallbacks``).
    cluster_min_workers: int = 1
    #: Seconds to wait for the fleet (registration and slot acquisition).
    cluster_wait: float = 30.0
    #: Consolidated per-job retry budget: total task failures tolerated
    #: across the whole run before the job fails with
    #: :class:`~repro.engine.faults.RetryBudgetExhaustedError`, so a
    #: retry storm can't wedge a worker re-attempting forever.  None
    #: leaves only the per-task ``max_task_attempts`` cap.
    retry_budget: int | None = None


def approx_logical_bytes(elements: Sequence[object]) -> int:
    """Decoded in-memory footprint estimate of one partition (bytes).

    Genomic records get the codec layer's per-record estimate; pairs and
    keyed values unwrap; a value that defines ``logical_bytes()`` (a
    region bundle) is charged what it reports; anything else is charged a
    flat per-object cost.  Only used for the memory-pressure gauges, so a
    cheap estimate beats an exact-but-slow one.
    """
    total = 0
    for element in elements:
        keyed = isinstance(element, tuple) and len(element) == 2
        value = element[1] if keyed else element
        if isinstance(element, (FastqRecord, SamRecord)):
            total += logical_size([element])
        elif isinstance(element, FastqPair):
            total += logical_size([element.read1, element.read2]) + 56
        elif keyed and isinstance(value, (FastqRecord, SamRecord)):
            total += logical_size([value]) + 120
        elif callable(getattr(value, "logical_bytes", None)):
            total += value.logical_bytes() + (120 if keyed else 0)
        else:
            total += 160
    return total


class PartitionStore:
    """Cache block I/O over one block manager.

    The surface ``RDD.iterator`` and the scheduler touch at compute time.
    The driver's :class:`GPFContext` and the cluster worker's context
    both inherit it, so a partition is encoded, timed, stored and
    decoded by the same code wherever the task runs.  A block is the
    serializer's bytes for the partition, nothing more.  Subclasses
    provide ``block_manager``, ``serializer`` and ``metrics``.
    """

    def _decode_block(self, blob: bytes) -> list:
        """A stored partition's elements, in one ``loads_many`` call,
        charged to the ``blockmanager.decode*`` telemetry."""
        started = time.perf_counter()
        elements = self.serializer.loads_many([blob])
        elapsed = time.perf_counter() - started
        self.metrics.inc("blockmanager.decode_seconds", elapsed)
        self.metrics.observe("blockmanager.decode_batch_seconds", elapsed)
        self.metrics.inc("blockmanager.decoded_records", len(elements))
        return elements

    def _cache_get(self, rdd: RDD, split: int) -> list | None:
        """One cached partition, decoded from its block (or None)."""
        blob = self.block_manager.get((rdd.id, split))
        if blob is None:
            return None
        return self._decode_block(blob)

    def _cache_put(self, rdd: RDD, split: int, data: list) -> None:
        with _timed_counter(self.metrics, "blockmanager.encode_seconds"):
            blob = self.serializer.dumps(data)
        self.block_manager.put(
            (rdd.id, split), blob, logical_bytes=approx_logical_bytes(data)
        )

    def _cache_complete(self, rdd: RDD) -> bool:
        return all(
            self.block_manager.contains((rdd.id, split))
            for split in range(rdd.num_partitions)
        )


class GPFContext(PartitionStore):
    """Entry point to the engine."""

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        # Built before anything below is acquired (profiler thread, event
        # sink, temp dir, GC hook): an unknown backend name raises here
        # with nothing to release.  Pools start their threads on first
        # submit, so an executor that is never used holds nothing either.
        self.executor = make_executor(
            self.config.executor_backend, self.config.num_workers
        )
        self.serializer = get_serializer(self.config.serializer)
        # -- observability (repro.obs) ----------------------------------
        # Every context owns one metrics registry, an event bus and a
        # tracer over it; all are near-free when nothing reads them.  A
        # configured trace_dir attaches the JSONL sink.
        self.metrics = MetricsRegistry()
        self.events = EventBus()
        self.tracer = Tracer(self.events)
        self._event_sink: JsonlEventSink | None = None
        self._trace_dir: str | None = None
        self._started_mono = time.monotonic()
        if self.config.trace_dir:
            self._attach_trace(self.config.trace_dir)
        self.profiler = None
        if self.config.profile_interval is not None:
            from repro.obs import SamplingProfiler

            self.profiler = SamplingProfiler(
                interval=self.config.profile_interval,
                tracer=self.tracer,
                events=self.events,
            )
            self.profiler.start()
        # -- chaos plane (repro.chaos) -----------------------------------
        # EngineConfig.chaos accepts a ChaosPlan (the usual case) or a
        # pre-built injector; the injector is threaded through every
        # subsystem that touches disk or runs tasks, and publishes each
        # injection as a chaos.inject event on this context's bus.
        chaos_cfg = self.config.chaos
        if chaos_cfg is None:
            self.chaos = None
        elif hasattr(chaos_cfg, "hit"):
            self.chaos = chaos_cfg
            if getattr(chaos_cfg, "events", None) is None:
                chaos_cfg.events = self.events
        else:
            from repro.chaos.injector import ChaosInjector

            self.chaos = ChaosInjector(chaos_cfg, events=self.events)
        spill = self.config.spill_dir or tempfile.mkdtemp(prefix="gpf_spill_")
        os.makedirs(spill, exist_ok=True)
        self._owns_spill = self.config.spill_dir is None
        self._spill_dir = spill
        self.shuffle_manager = ShuffleManager(
            spill, metrics=self.metrics, chaos=self.chaos
        )
        self._scheduler = DAGScheduler(self)
        self._lock = threading.Lock()
        self._next_rdd_id = 0
        # Persisted partitions live in the block manager as the
        # serializer's compressed bytes (MEMORY_SER with disk spill beyond
        # the budget): GPF persists RDDs in compressed serialized form
        # (paper §4.2), and the limit is enforced on *compressed* bytes so
        # the effective capacity grows by the compression ratio.
        self.block_manager = BlockManager(
            spill,
            memory_limit=self.config.memory_budget,
            events=self.events,
            chaos=self.chaos,
        )
        self._rdd_partitions: dict[int, int] = {}
        self._closed = False
        #: Context-wide sink for malformed input records routed by the
        #: ``malformed="quarantine"`` loader policy.
        self.quarantine = QuarantineSink(events=self.events, chaos=self.chaos)
        # The gc.callbacks hook is refcounted per live context and removed
        # when the last context stops (no global callback left behind).
        GC_TIMER.acquire()
        self.events.publish(
            "run.start",
            backend=self.config.executor_backend,
            workers=self.config.num_workers,
            serializer=self.config.serializer,
        )
        # Bind the transport last: a remote transport hooks the shuffle
        # manager and opens its fleet listener here, and needs the block
        # manager and spill dir above to exist.  Everything stop() gives
        # back is acquired by now, so a failed bind (cluster_listen port
        # already in use) releases it all the ordinary way; the caller
        # sees the bind error even if that cleanup fails too.
        try:
            self.executor.bind(self)
        except BaseException:
            with suppress(Exception):
                self.stop()
            raise

    # -- construction ---------------------------------------------------
    def parallelize(self, data: Sequence[T], num_partitions: int | None = None) -> RDD:
        return ParallelCollectionRDD(
            self, data, num_partitions or self.config.default_parallelism
        )

    def broadcast(self, value: T) -> Broadcast[T]:
        return Broadcast(value)

    # -- execution --------------------------------------------------------
    def run_job(self, rdd: RDD, partitions: Sequence[int] | None = None) -> list[list]:
        if self._closed:
            raise RuntimeError("context is closed")
        return self._scheduler.run_job(rdd, partitions)

    def cached_bytes(self) -> int:
        """Total size of the serialized block cache (Table 3 measurements)."""
        return self.block_manager.total_bytes()

    # -- observability -----------------------------------------------------
    def _attach_trace(self, trace_dir: str) -> None:
        """Subscribe the JSONL event sink for ``trace_dir``."""
        os.makedirs(trace_dir, exist_ok=True)
        self._trace_dir = trace_dir
        self._event_sink = JsonlEventSink(os.path.join(trace_dir, "events.jsonl"))
        self.events.subscribe(self._event_sink)

    def begin_trace(self, trace_dir: str) -> None:
        """Start a fresh trace segment mid-life (context pooling hook).

        A resident service reuses one warm context across many jobs but
        wants per-job ``events.jsonl``/``trace.json`` files.  Any segment
        already open is flushed first; the new segment gets its own
        ``run.start`` so :meth:`~repro.obs.RunReport.from_events` works on
        each per-job log in isolation.
        """
        if self._closed:
            raise RuntimeError("context is closed")
        if self._event_sink is not None:
            self._flush_observability()
        if self.profiler is not None:
            # Per-job isolation: the new segment's profile must not carry
            # the previous job's samples.
            self.profiler.reset()
        self._attach_trace(trace_dir)
        self._started_mono = time.monotonic()
        self.events.publish(
            "run.start",
            backend=self.config.executor_backend,
            workers=self.config.num_workers,
            serializer=self.config.serializer,
        )

    def end_trace(self) -> None:
        """Flush and close the current trace segment."""
        self._flush_observability()
        self._trace_dir = None

    def reset_for_reuse(self) -> None:
        """Clear per-run state, keep the heavy machinery warm (pooling hook).

        Drops every cached RDD partition, the metrics registry's stages,
        failures and named values, and quarantined records — everything one job deposited —
        while the executor pool, shuffle manager, block manager, and GC
        hook stay up, which is the whole point of a resident service:
        the next job pays none of the start-up cost.
        """
        if self._closed:
            raise RuntimeError("context is closed")
        if self._event_sink is not None:
            self.end_trace()
        with self._lock:
            rdd_ids = list(self._rdd_partitions)
        for rdd_id in rdd_ids:
            self.block_manager.evict_rdd(rdd_id)
        self.metrics.reset()
        self.quarantine = QuarantineSink(events=self.events, chaos=self.chaos)

    def telemetry_snapshot(self) -> dict:
        """Merged view of every subsystem's counters, non-mutating.

        Live-incremented counters (shuffle bytes, journal restores, task
        failures, cache statistics) come straight from the registry;
        subsystems that keep their own tallies (block manager, quarantine
        sink, chaos injector, profiler) are folded in read-only, so
        calling this twice never double-counts.
        """
        snapshot = self.metrics.snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        stats = self.block_manager.stats
        for name, value in (
            ("block.hits", stats.hits),
            ("block.misses", stats.misses),
            ("block.evictions", stats.evictions),
            ("block.disk_reads", stats.disk_reads),
            ("block.corrupt_reads", stats.corrupt_reads),
            ("block.spill_errors", stats.spill_errors),
        ):
            if value:
                counters[name] = counters.get(name, 0) + value
        gauges["block.disk_bytes"] = stats.disk_bytes
        # Compressed-resident gauges: what the cache holds compressed vs.
        # what those same blocks would occupy decoded.  Their ratio is
        # derived where it is read (RunReport.memory_summary), so a fold
        # that sums gauges across contexts never sums a ratio.
        gauges["blockmanager.compressed_bytes"] = stats.memory_bytes
        gauges["blockmanager.logical_bytes"] = stats.logical_bytes
        for kind, count in self.quarantine.counts.items():
            counters[f"quarantine.{kind}"] = (
                counters.get(f"quarantine.{kind}", 0) + count
            )
        if self.chaos is not None:
            injected = getattr(self.chaos, "injected", 0)
            if injected:
                counters["chaos.injected"] = (
                    counters.get("chaos.injected", 0) + injected
                )
        if self.profiler is not None:
            samples = self.profiler.samples
            if samples:
                counters["profiler.samples"] = (
                    counters.get("profiler.samples", 0) + samples
                )
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": snapshot["histograms"],
        }

    def _flush_observability(self) -> None:
        """Final telemetry and ``run.end`` events to whoever subscribes,
        then sink close and the files derived from the segment's
        ``events.jsonl`` (stop(), end_trace())."""
        if self.profiler is not None:
            # Drain the pending sample delta into the event log first so
            # the folded profile replays fully from events.jsonl.
            self.profiler.flush()
        if self.events.active:
            self.events.publish("telemetry", **self.telemetry_snapshot())
            # elapsed comes from the monotonic clock: an NTP step mid-run
            # must not produce a negative (or inflated) run duration.
            self.events.publish(
                "run.end", elapsed=time.monotonic() - self._started_mono
            )
        if self._event_sink is None:
            return
        sink = self._event_sink
        self.events.unsubscribe(sink)
        sink.close()
        self._event_sink = None
        trace_path = os.path.join(self._trace_dir, "trace.json")
        if sink.degraded:
            # A write error switched the sink off: the log lost every
            # later event, so a trace built from it would drop spans
            # without a sign.  Leave no trace.json (not even an earlier
            # segment's) and say why.
            with suppress(FileNotFoundError):
                os.remove(trace_path)
            self.metrics.inc("executor.event_log_degraded")
            self.events.publish("executor.incident", incident="event_log_degraded")
        else:
            # The sink appends: only this segment's events, from the
            # offset it opened at, make this trace.
            write_chrome_trace(
                trace_path, read_events(sink.path, sink.offset), self.profiler
            )
        if self.profiler is not None:
            self.profiler.write_folded(
                os.path.join(self._trace_dir, "profile.folded")
            )

    # -- bookkeeping ---------------------------------------------------------
    def _register_rdd(self, rdd: RDD) -> int:
        with self._lock:
            rdd_id = self._next_rdd_id
            self._next_rdd_id += 1
            self._rdd_partitions[rdd_id] = rdd.num_partitions
            return rdd_id

    def stop(self) -> None:
        if self._closed:
            return
        try:
            # Writes trace.json/profile.folded: the one step here that can
            # realistically fail (full disk) must not strand the rest.
            self._flush_observability()
        finally:
            if self.profiler is not None:
                self.profiler.stop()
            GC_TIMER.release()
            self.executor.shutdown()
            if self._owns_spill:
                self.shuffle_manager.cleanup()
                self.block_manager.cleanup()
                import shutil

                shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._closed = True

    def __enter__(self) -> "GPFContext":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
