"""One workload, measured: set-up, cold repetitions under a watchdog, the
reference check, and (with ``--trace 1``) the traced repetition, the
no-op job and the layer replay.

Load is a closed loop of one client: the next repetition starts when the
previous one has been torn down.  Every repetition builds a fresh
``GPFContext`` on a fresh spill directory with the engine's tracer off
and no warm-up, because a batch user pays for a cold job every time.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field
from typing import Iterator

import numpy

from repro.core.partitioning import PartitionInfo
from repro.engine.context import GPFContext

from benchmarks.ledger import LEDGER_DIR, REPO_ROOT
from benchmarks.ledger.replay import Metrics, replay
from benchmarks.ledger.spans import SpanLog
from benchmarks.ledger.workloads import (
    FULL,
    SMOKE,
    WORKERS,
    WORKLOADS,
    Inputs,
    Size,
    Workload,
    build_plan,
    check_output,
    fresh_records,
    make_inputs,
    variant_f1,
    write_output,
)

SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Everything a run writes goes under here: the driver's checkout is the
#: only place the benchmark may touch.
WORK_ROOT = os.path.join(LEDGER_DIR, ".work")

#: Inputs are generated this many times; ``setup_s`` takes the median.
SETUP_REPEATS = 3
#: Fewest timed repetitions, however short ``--seconds`` is.
MIN_REPETITIONS = 3
#: Watchdog of the first repetition; later ones get 4x the first's wall.
FIRST_LIMIT_S = 90.0
TEARDOWN_LIMIT_S = 30.0
#: Partitions of the no-op job behind ``engine.task_overhead_ms``.
NOOP_TASKS = 256


class WatchdogTimeout(BaseException):
    """A repetition overran its limit.  Not an ``Exception``: the engine's
    retry loops must not swallow it as one more failed task."""


class WorkerLeak(RuntimeError):
    """A ``gpf worker`` child outlived its repetition and had to be killed."""


@contextmanager
def watchdog(seconds: float) -> Iterator[None]:
    """Raise :class:`WatchdogTimeout` in this (the main) thread after
    ``seconds``, and again every second until the block is left, so a
    handler that swallows the first one cannot turn a hang into a stall."""

    def on_alarm(signum, frame):
        raise WatchdogTimeout(f"no result after {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def cpu_seconds() -> float:
    """User + system time of this process and every child reaped so far."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child."""
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def host_info() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "host_cpus": os.cpu_count() or 1,
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


# -- one engine, one repetition ---------------------------------------------


def _spawn_workers(port: int, directory: str) -> list[subprocess.Popen]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli.main", "worker",
                "--connect", f"127.0.0.1:{port}",
                "--slots", "1",
                "--id", f"ledger-w{i}",
                "--work-dir", os.path.join(directory, f"worker{i}"),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for i in range(WORKERS)
    ]


def _stop_workers(workers: list[subprocess.Popen]) -> int:
    """Terminate and reap every worker; returns how many had to be killed."""
    for proc in workers:
        proc.terminate()
    leaked = 0
    for proc in workers:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            leaked += 1
            proc.kill()
            proc.wait()
    return leaked


@contextmanager
def engine_session(
    workload: Workload, size: Size, directory: str, spans: SpanLog, trace_dir: str | None = None
) -> Iterator[GPFContext]:
    """A fresh context — and for the cluster backend a fresh loopback
    fleet — that is gone, processes reaped, when the block is left."""
    config = workload.engine_config(size, os.path.join(directory, "spill"), trace_dir)
    workers: list[subprocess.Popen] = []
    ctx = GPFContext(config)
    try:
        if workload.backend == "cluster":
            with spans.span("dist.fleet_start", "dist", records=WORKERS):
                fleet = ctx.executor.fleet
                workers = _spawn_workers(fleet.port, directory)
                if fleet.wait_for_workers(WORKERS, 30.0) < WORKERS:
                    raise RuntimeError("cluster workers never registered")
        yield ctx
    finally:
        with spans.span("teardown", "bench"), watchdog(TEARDOWN_LIMIT_S):
            leaked = _stop_workers(workers)
            ctx.stop()
        if leaked:
            raise WorkerLeak(f"{leaked} gpf worker(s) outlived the repetition")


@dataclass
class Repetition:
    wall_s: float
    cpu_s: float = 0.0
    fleet_start_s: float = 0.0
    digest: str = ""
    problem: str | None = None
    #: Public counters read after collect, keyed by ledger metric name.
    counters: Metrics = field(default_factory=dict)
    partition_info: PartitionInfo | None = None


def _read_counters(ctx: GPFContext, plan, inputs: Inputs, collected: list) -> Metrics:
    """The (C) metrics: public counters of a finished job."""
    job = ctx.metrics.job()
    snapshot = ctx.telemetry_snapshot()
    counters = snapshot["counters"]
    stats = ctx.block_manager.stats
    tasks = sum(len(stage.tasks) for stage in job.stages)
    lookups = stats.hits + stats.misses
    shipped = counters.get("dist.tasks_shipped", 0)
    return {
        "engine.resident_bytes": (stats.memory_bytes, "bytes"),
        "engine.shuffle_bytes_written": (counters.get("shuffle.bytes_written", 0), "bytes"),
        "engine.shuffle_bytes_read": (counters.get("shuffle.bytes_read", 0), "bytes"),
        "engine.shuffle_records_written": (counters.get("shuffle.records_written", 0), "count"),
        "engine.shuffle_blocked_s": (job.shuffle_time, "s"),
        "engine.gc_s": (job.gc_time, "s"),
        "engine.block_encode_s": (counters.get("blockmanager.encode_seconds", 0.0), "s"),
        "engine.block_decode_s": (counters.get("blockmanager.decode_seconds", 0.0), "s"),
        "engine.block_decoded_records": (counters.get("blockmanager.decoded_records", 0), "count"),
        "engine.block_evictions": (stats.evictions, "count"),
        "engine.block_disk_reads": (stats.disk_reads, "count"),
        "engine.block_hit_frac": (stats.hits / lookups if lookups else 0.0, "ratio"),
        "engine.tasks": (tasks, "count"),
        "engine.core_s": (job.core_seconds, "s"),
        "engine.task_failures": (len(ctx.metrics.failures), "count"),
        "engine.thread_fallbacks": (counters.get("executor.fallbacks", 0), "count"),
        "core.plan_processes": (len(plan.pipeline.processes), "count"),
        "core.fused_processes": (len(plan.pipeline.executed), "count"),
        "caller.variant_f1": (
            variant_f1(inputs, collected) if inputs.kind == "wgs" else 0.0,
            "ratio",
        ),
        "dist.tasks_shipped": (shipped, "count"),
        "dist.bytes_shipped": (counters.get("dist.bytes_shipped", 0), "bytes"),
        "dist.bytes_returned": (counters.get("dist.bytes_returned", 0), "bytes"),
        "dist.bytes_per_task": (
            counters.get("dist.bytes_shipped", 0) / shipped if shipped else 0.0,
            "bytes",
        ),
        "dist.fetches": (counters.get("dist.fetches", 0), "count"),
        "dist.fetch_bytes": (counters.get("dist.fetch_bytes", 0), "bytes"),
        "dist.workers_lost": (counters.get("dist.workers_lost", 0), "count"),
    }


def run_repetition(
    workload: Workload,
    size: Size,
    inputs: Inputs,
    workdir: str,
    spans: SpanLog,
    limit_s: float,
    trace_dir: str | None = None,
) -> Repetition:
    """One cold job: build pipeline -> ``run()`` -> collect, then write and
    check the output.  ``wall_s`` spans build..collect; ``cpu_s`` the whole
    repetition, fleet and teardown included, so children are reaped."""
    directory = tempfile.mkdtemp(prefix="rep-", dir=workdir)
    cpu_before = cpu_seconds()
    records = fresh_records(inputs)
    try:
        with spans.span(f"run:{workload.name}", "bench", records=len(inputs.pairs)):
            with engine_session(workload, size, directory, spans, trace_dir) as ctx:
                with watchdog(limit_s):
                    with spans.span("build", "core") as build:
                        plan = build_plan(workload, ctx, inputs, records)
                    with spans.span("pipeline.run", "engine"):
                        plan.pipeline.run()
                    with spans.span("collect", "engine") as collect:
                        collected = plan.output.rdd.collect()
                    collect.records = len(collected)
                rep = Repetition(wall_s=collect.end - build.start)
                rep.counters = _read_counters(ctx, plan, inputs, collected)
                rep.partition_info = plan.partition_info.value
                with spans.span("write", "formats", records=len(collected)):
                    rep.digest = write_output(
                        inputs, plan, collected, os.path.join(directory, "output.txt")
                    )
                rep.problem = check_output(inputs, collected)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    rep.cpu_s = cpu_seconds() - cpu_before
    if workload.backend == "cluster":
        rep.fleet_start_s = spans.last("dist.fleet_start").seconds
    return rep


def task_overhead_ms(workload: Workload, size: Size, workdir: str, spans: SpanLog) -> float:
    """Cost of one empty task on the workload's backend: a no-op job of
    ``NOOP_TASKS`` empty partitions on its own fresh engine."""
    directory = tempfile.mkdtemp(prefix="noop-", dir=workdir)
    try:
        with engine_session(workload, size, directory, spans) as ctx:
            with watchdog(FIRST_LIMIT_S), spans.span("noop_job", "engine", NOOP_TASKS) as job:
                ctx.parallelize([], NOOP_TASKS).map(lambda x: x).collect()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return 1000.0 * job.seconds / NOOP_TASKS


# -- one workload -------------------------------------------------------------


def summarize(values: list[float], unit: str) -> dict:
    """Median, quartiles, min, max and n.  The sample is a handful of
    repetitions — too few for a tail percentile, so none is reported."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "unit": unit,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


@dataclass
class Outcome:
    """What one measured workload reports."""

    workload: str
    seed: int
    smoke: bool
    host: dict
    pairs: int
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    end_to_end: dict[str, dict] = field(default_factory=dict)
    per_layer: dict[str, dict] = field(default_factory=dict)


class Measurement:
    """State of one workload's run: its inputs, spans and tallies."""

    def __init__(self, workload: Workload, size: Size, seed: int, smoke: bool, workdir: str):
        self.workload = workload
        self.size = size
        self.workdir = workdir
        self.spans = SpanLog()
        self.outcome = Outcome(workload.name, seed, smoke, host_info(), size.pairs)
        self.limit_s = FIRST_LIMIT_S
        self.inputs: Inputs | None = None
        self.peak_rss_mb = 0.0

    def counted(self, what: str, operation):
        """Run one operation of the program under test, counted in
        ``attempted``; a failure is recorded in ``failed``, not raised."""
        out = self.outcome
        out.attempted += 1
        try:
            return operation()
        except (Exception, WatchdogTimeout) as exc:
            out.failed += 1
            out.problems.append(f"{what} failed: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None

    def attempt(self, workload: Workload, trace_dir: str | None = None) -> Repetition | None:
        """One repetition whose output passed every check, or None."""
        out = self.outcome
        what = f"repetition {out.attempted + 1} ({workload.name})"
        rep = self.counted(
            what,
            lambda: run_repetition(
                workload, self.size, self.inputs, self.workdir, self.spans, self.limit_s, trace_dir
            ),
        )
        if rep is None:
            return None
        if not out.digest:
            out.digest = rep.digest
        if rep.digest != out.digest:
            rep.problem = f"output digest {rep.digest[:12]} differs from {out.digest[:12]}"
        if rep.problem:
            out.failed += 1
            out.problems.append(f"{what}: {rep.problem}")
            return None
        return rep

    def setup(self, import_s: float, repeats: int) -> list[float]:
        """Generate (and for ``clean`` align) the inputs ``repeats`` times;
        returns each set-up's seconds, imports included."""
        seconds = []
        for _ in range(repeats):
            with self.spans.span(f"setup:{self.workload.inputs}", "bench") as span:
                self.inputs = make_inputs(
                    self.workload.inputs, self.outcome.seed, self.size, self.spans
                )
            seconds.append(import_s + span.seconds)
        return seconds

    def measure(self, seconds: float, min_repetitions: int) -> list[Repetition]:
        """Timed repetitions for ``seconds``, at least ``min_repetitions``;
        gives up once that many have failed."""
        reps: list[Repetition] = []
        deadline = time.perf_counter() + seconds
        while self.outcome.failed < min_repetitions and (
            len(reps) < min_repetitions or time.perf_counter() < deadline
        ):
            rep = self.attempt(self.workload)
            if rep is None:
                continue
            if not reps:
                self.limit_s = max(10.0, 4.0 * rep.wall_s)
            reps.append(rep)
            if len(reps) == min_repetitions:
                # The heap grows a little with every repetition; read the peak
                # at a fixed count, so it does not depend on how many fit.
                self.peak_rss_mb = peak_rss_mb()
        return reps


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    import_s: float,
    out_dir: str | None,
) -> Outcome:
    """Measure one workload and return (and, with ``out_dir``, save) what
    it reports."""
    workload = WORKLOADS[name]
    size = SMOKE if smoke else FULL
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    # Anything the engine or its children put in a temp dir stays in here.
    tempfile.tempdir = os.environ["TMPDIR"] = workdir
    m = Measurement(workload, size, seed, smoke, workdir)
    out = m.outcome
    try:
        setup = m.setup(import_s, 1 if smoke else SETUP_REPEATS)
        reps = m.measure(0.0 if smoke else seconds, 1 if smoke else MIN_REPETITIONS)
        # Output check: the same plan on the plain reference configuration
        # must give the same bytes.
        reference = None
        if reps and workload.reference:
            reference = m.attempt(WORKLOADS[workload.reference])
        if reps:
            fleet = statistics.median(r.fleet_start_s for r in reps)
            out.end_to_end = {
                "setup_s": summarize([s + fleet for s in setup], "s"),
                "wall_s": summarize([r.wall_s for r in reps], "s"),
                "cpu_s": summarize([r.cpu_s for r in reps], "s"),
                "peak_rss_mb": summarize([m.peak_rss_mb], "MB"),
            }
        if reps and trace and out.failed == 0:
            out.per_layer = _per_layer(m, reps, reference, out_dir)
        out.correct = out.failed == 0 and bool(reps)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            m.spans.write(os.path.join(out_dir, f"spans.{name}.jsonl"))
            with open(os.path.join(out_dir, f"result.{name}.json"), "w", encoding="ascii") as fh:
                json.dump(asdict(out), fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with suppress(OSError):  # another run may still be using it
            os.rmdir(WORK_ROOT)
    return out


def _per_layer(
    m: Measurement, reps: list[Repetition], reference: Repetition | None, out_dir: str | None
) -> dict[str, dict]:
    """The traced repetition, the no-op job and the replay; returns every
    per-layer metric, or nothing if the traced repetition failed."""
    workload, spans = m.workload, m.spans
    trace_dir = os.path.join(out_dir or m.workdir, f"trace.{workload.name}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    traced = m.attempt(workload, trace_dir)
    if traced is None:
        return {}
    with open(os.path.join(trace_dir, "events.jsonl"), encoding="utf-8") as fh:
        trace_events = sum(1 for _ in fh)
    # Counters come from the last untraced repetition: exact counts are
    # the same in all of them, and its timers ran with tracing off.  Values
    # derived from them use that repetition's own wall time.
    last = reps[-1]
    wall = last.wall_s
    metrics: Metrics = dict(last.counters)
    core = metrics["engine.core_s"][0]
    # A parallel backend's task run_time includes waiting for a slot (and,
    # on threads, for the GIL), so the work it had to do is read off the
    # serial reference repetition of the same plan.
    work = reference.counters["engine.core_s"][0] if workload.parallel else core
    cluster = workload.backend == "cluster"
    replayed = m.counted(
        "layer replay", lambda: replay(m.inputs, last.partition_info, m.workdir, spans)
    )
    overhead_ms = m.counted(
        "no-op job", lambda: task_overhead_ms(workload, m.size, m.workdir, spans)
    )
    if replayed is None or overhead_ms is None:
        return {}
    metrics.update(replayed)
    metrics.update(
        {
            "engine.driver_s": (0.0 if workload.parallel else wall - core, "s"),
            "engine.parallelism": (work / wall, "ratio"),
            "engine.task_overhead_ms": (overhead_ms, "ms"),
            "dist.fleet_start_s": (last.fleet_start_s, "s"),
            "dist.transport_overhead_s": (wall - work / WORKERS if cluster else 0.0, "s"),
            "obs.trace_overhead_frac": (
                traced.wall_s / statistics.median(r.wall_s for r in reps) - 1.0,
                "ratio",
            ),
            "obs.trace_events": (trace_events, "count"),
        }
    )
    return {k: {"value": v, "unit": unit} for k, (v, unit) in sorted(metrics.items())}
