"""The run report: the paper's evaluation tables from one run's telemetry.

:class:`RunReport` renders three views the paper's §5 builds its argument
on, plus a failure/robustness summary the paper does not have:

- **Process table** — per-Process wall time (the Fig. 11 phase breakdown).
- **Stage table** — stage count, per-stage task counts, run time, shuffle
  bytes, disk/network-blocked and GC time (Table 4's columns).
- **Blocked-time fractions** — disk/network blocked time as a share of
  total task time (Fig. 12, after Ousterhout et al. NSDI'15).
- **Failures & telemetry** — retried attempts, executor incidents,
  quarantined records, journal restores, cache hit rates.

A report has one constructor, :meth:`RunReport.from_events`: the run's
``span.close`` events carry the pipeline, process and stage rows, and
its final ``telemetry`` event the counters.  ``gpf run`` feeds it the
events it subscribed to; ``gpf report <events.jsonl>`` feeds it a saved
log, long after the run is gone.  Both run the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.obs.events import last_run


@dataclass
class StageRow:
    """One scheduler stage, aggregated over its task attempts."""

    stage_id: int
    name: str
    tasks: int = 0
    run_time: float = 0.0
    disk_blocked: float = 0.0
    network_blocked: float = 0.0
    gc_time: float = 0.0
    shuffle_bytes_read: int = 0
    shuffle_bytes_written: int = 0
    records_read: int = 0
    records_written: int = 0


_STAGE_FIELDS = tuple(f.name for f in fields(StageRow))


@dataclass
class ProcessRow:
    """One pipeline Process: wall time, or the journal-skip marker."""

    name: str
    seconds: float | None = None
    skipped: bool = False


@dataclass
class RunReport:
    """Everything ``gpf report`` renders, in one plain structure."""

    stages: list[StageRow] = field(default_factory=list)
    processes: list[ProcessRow] = field(default_factory=list)
    #: (stage_kind, partition, error_type) per failed (retried) attempt.
    failures: list[tuple[str, int, str]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    #: name -> Histogram.snapshot() — latency distributions (task
    #: duration, queue wait, decode batches).
    histograms: dict[str, dict] = field(default_factory=dict)
    elapsed: float | None = None
    pipeline_name: str | None = None

    # -- derived ------------------------------------------------------------
    @property
    def core_seconds(self) -> float:
        return sum(s.run_time for s in self.stages)

    @property
    def shuffle_bytes(self) -> int:
        return sum(s.shuffle_bytes_written for s in self.stages)

    @property
    def task_count(self) -> int:
        return sum(s.tasks for s in self.stages)

    def memory_summary(self) -> dict[str, float]:
        """Compressed-residency gauges, plus derived ratio and decode share.

        ``compressed_bytes``/``logical_bytes`` come from the block manager
        (resident vs. decoded footprint of cached blocks).  This is the
        one place the compression ratio is derived: no gauge stores it,
        so summed multi-context snapshots (the serve ``/metrics`` fold,
        read by ``gpf jobs --metrics``) yield the fleet-wide ratio.
        """
        compressed = self.gauges.get("blockmanager.compressed_bytes", 0.0)
        logical = self.gauges.get("blockmanager.logical_bytes", 0.0)
        decode = self.counters.get("blockmanager.decode_seconds", 0.0)
        core = self.core_seconds
        return {
            "compressed_bytes": compressed,
            "logical_bytes": logical,
            "compression_ratio": (logical / compressed) if compressed else 0.0,
            "decode_seconds": decode,
            "decode_share": (decode / core) if core else 0.0,
            "decoded_records": self.counters.get(
                "blockmanager.decoded_records", 0.0
            ),
        }

    def blocked_fractions(self) -> tuple[float, float]:
        """(disk, network) blocked time over total task time — Fig. 12."""
        total = self.core_seconds
        if total == 0:
            return (0.0, 0.0)
        disk = sum(s.disk_blocked for s in self.stages)
        net = sum(s.network_blocked for s in self.stages)
        return (disk / total, net / total)

    def summary_line(self) -> str:
        """The one-line run summary ``gpf run`` always prints to stderr."""
        quarantined = int(
            sum(v for k, v in self.counters.items() if k.startswith("quarantine."))
        )
        restored = int(self.counters.get("journal.restored", 0))
        return (
            f"gpf run: {self.task_count} task(s), {len(self.failures)} "
            f"retried failure(s), {quarantined} quarantined record(s), "
            f"{restored} process(es) restored from journal"
        )

    # -- construction -------------------------------------------------------
    @classmethod
    def from_events(cls, events: list[dict]) -> "RunReport":
        """Rebuild the report from a saved event log alone.

        Pipeline, process and stage rows come from ``span.close``
        events: a stage span closes with its ledger totals.  A process
        span that closed on an exception is not a row, as a failed
        Process is not in ``Pipeline.executed``.  Of a log that several
        runs appended to, only the last run (:func:`last_run`, as in
        ``trace.json``) counts.
        """
        report = cls()
        for event in last_run(events):
            kind = event.get("kind")
            if kind == "span.close":
                span_kind = event["span_kind"]
                attrs = event["attrs"]
                subject = event["name"].partition(":")[2]
                if span_kind == "stage":
                    report.stages.append(
                        StageRow(**{f: attrs[f] for f in _STAGE_FIELDS})
                    )
                elif span_kind == "process" and "error" not in attrs:
                    report.processes.append(ProcessRow(subject, event["dur"]))
                elif span_kind == "pipeline":
                    report.pipeline_name = subject
                    report.elapsed = event["dur"]
            elif kind == "process.skipped":
                report.processes.append(ProcessRow(event["process"], skipped=True))
            elif kind == "task.failure":
                report.failures.append(
                    (event["stage_kind"], event["partition"], event["error_type"])
                )
            elif kind == "run.end" and report.elapsed is None:
                report.elapsed = event["elapsed"]
            elif kind == "telemetry":
                report.counters = dict(event["counters"])
                report.gauges = dict(event["gauges"])
                report.histograms = dict(event.get("histograms") or {})
        report.stages.sort(key=lambda s: s.stage_id)
        return report

    # -- rendering ----------------------------------------------------------
    def render_text(self) -> str:
        """The human-readable report."""
        lines: list[str] = []
        title = "GPF run report"
        if self.pipeline_name:
            title += f" — pipeline {self.pipeline_name!r}"
        lines.append(title)
        lines.append("=" * len(title))
        if self.elapsed is not None:
            lines.append(f"elapsed: {self.elapsed:.3f}s")
        lines.append("")

        lines.append("Processes (wall time)")
        if self.processes:
            width = max(len(p.name) for p in self.processes)
            for proc in self.processes:
                if proc.skipped:
                    status = "   restored from journal"
                elif proc.seconds is None:
                    status = "          -"
                else:
                    status = f"{proc.seconds:>10.3f}s"
                lines.append(f"  {proc.name:<{width}}  {status}")
        else:
            lines.append("  (no pipeline information)")
        lines.append("")

        lines.append("Stages (Table 4)")
        header = (
            f"  {'id':>3} {'name':<28} {'tasks':>5} {'time(s)':>9} "
            f"{'shuf-wr(B)':>10} {'shuf-rd(B)':>10} {'disk(s)':>8} "
            f"{'net(s)':>8} {'gc(s)':>7}"
        )
        lines.append(header)
        for stage in self.stages:
            lines.append(
                f"  {stage.stage_id:>3} {stage.name[:28]:<28} {stage.tasks:>5} "
                f"{stage.run_time:>9.3f} {stage.shuffle_bytes_written:>10} "
                f"{stage.shuffle_bytes_read:>10} {stage.disk_blocked:>8.3f} "
                f"{stage.network_blocked:>8.3f} {stage.gc_time:>7.3f}"
            )
        lines.append(
            f"  total: {len(self.stages)} stage(s), {self.task_count} task(s), "
            f"{self.core_seconds:.3f} core-seconds, "
            f"{self.shuffle_bytes} shuffle bytes"
        )
        lines.append("")

        disk, net = self.blocked_fractions()
        lines.append("Blocked time (Fig. 12)")
        lines.append(f"  disk-blocked:    {disk * 100:>6.2f}% of task time")
        lines.append(f"  network-blocked: {net * 100:>6.2f}% of task time")
        lines.append("")

        memory = self.memory_summary()
        lines.append("Memory (compressed-resident blocks)")
        if memory["compressed_bytes"] or memory["decode_seconds"]:
            lines.append(
                f"  resident (compressed): {int(memory['compressed_bytes'])} B"
            )
            lines.append(
                f"  logical (decoded):     {int(memory['logical_bytes'])} B"
            )
            lines.append(
                f"  compression ratio:     {memory['compression_ratio']:.2f}x"
            )
            lines.append(
                f"  decode time:           {memory['decode_seconds']:.3f}s "
                f"({memory['decode_share'] * 100:.2f}% of task time, "
                f"{int(memory['decoded_records'])} record(s))"
            )
        else:
            lines.append("  (no cached blocks)")
        lines.append("")

        lines.append("Failures & retries")
        if self.failures:
            by_key: dict[tuple[str, int, str], int] = {}
            for key in self.failures:
                by_key[key] = by_key.get(key, 0) + 1
            lines.append(f"  {len(self.failures)} failed attempt(s):")
            for (kind, partition, error), count in sorted(by_key.items()):
                lines.append(f"    {kind} p{partition} {error} ×{count}")
        else:
            lines.append("  none")
        lines.append("")

        lines.append("Latency distributions")
        if self.histograms:
            width = max(len(name) for name in self.histograms)
            lines.append(
                f"  {'name':<{width}} {'count':>7} {'mean':>9} "
                f"{'p50':>9} {'p95':>9} {'p99':>9}"
            )
            for name in sorted(self.histograms):
                snap = self.histograms[name]
                count = snap.get("count", 0)
                mean = (snap.get("sum", 0.0) / count) if count else 0.0
                lines.append(
                    f"  {name:<{width}} {count:>7} {mean:>9.4f} "
                    f"{snap.get('p50', 0.0):>9.4f} "
                    f"{snap.get('p95', 0.0):>9.4f} "
                    f"{snap.get('p99', 0.0):>9.4f}"
                )
        else:
            lines.append("  (no histograms recorded)")
        lines.append("")

        lines.append("Telemetry")
        if self.counters or self.gauges:
            for name in sorted(self.counters):
                lines.append(f"  {name} = {_fmt_num(self.counters[name])}")
            for name in sorted(self.gauges):
                lines.append(f"  {name} := {_fmt_num(self.gauges[name])}")
        else:
            lines.append("  (no counters recorded)")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """JSON-ready structure mirroring :meth:`render_text`."""
        disk, net = self.blocked_fractions()
        return {
            "pipeline": self.pipeline_name,
            "elapsed": self.elapsed,
            "processes": [
                {"name": p.name, "seconds": p.seconds, "skipped": p.skipped}
                for p in self.processes
            ],
            "stages": [vars(s) for s in self.stages],
            "totals": {
                "stages": len(self.stages),
                "tasks": self.task_count,
                "core_seconds": self.core_seconds,
                "shuffle_bytes": self.shuffle_bytes,
            },
            "blocked_fractions": {"disk": disk, "network": net},
            "memory": self.memory_summary(),
            "failures": [
                {"stage_kind": k, "partition": p, "error_type": e}
                for k, p, e in self.failures
            ],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": dict(self.histograms),
        }


def _fmt_num(value: float) -> str:
    """Integers without a trailing .0; floats with sensible precision."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, float)) and float(value).is_integer():
        return str(int(value))
    return f"{value:.4f}"
