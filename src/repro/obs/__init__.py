"""repro.obs — unified tracing and telemetry for the GPF engine.

The paper's whole evaluation (§5: Table 4's stage/shuffle accounting,
Fig. 12's blocked-time analysis, Fig. 13's utilization) is an
observability story.  This package is the single surface that makes a
run inspectable:

- :mod:`repro.obs.tracer` — nested spans
  (pipeline → process → job → stage → task attempt), published as
  ``span.open``/``span.close`` events, with process-safe IDs; one per
  context, silent while nothing subscribes to its bus.
- :mod:`repro.obs.events` — the :class:`EventBus` every subsystem
  publishes to, its one clock, its JSONL sink, and the event-schema
  validator.
- :mod:`repro.obs.histogram` — the fixed-bucket log-spaced latency
  histogram (mergeable bucket-wise; p50/p95/p99 estimation).  Named
  counters, gauges and histograms are kept by the context's one
  :class:`~repro.engine.metrics.MetricsRegistry`.
- :mod:`repro.obs.profiler` — the sampling profiler: collapsed stacks
  attributed to live spans, folded flamegraph text, ``profile.sample``
  events.
- :mod:`repro.obs.prometheus` — Prometheus text-format 0.0.4 rendering
  and the line-format validator CI runs against live output.
- :mod:`repro.obs.chrome_trace` — Chrome-trace/Perfetto JSON, derived
  from a run's span events.
- :mod:`repro.obs.report` — the Table-4 / Fig.-12 style run report,
  built from a run's events (live or a saved ``events.jsonl``).
"""

from repro.obs.chrome_trace import (
    chrome_trace_dict,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.events import (
    EVENT_SCHEMA,
    EventBus,
    JsonlEventSink,
    MemorySink,
    last_run,
    read_events,
    validate_event,
    validate_events,
)
from repro.obs.histogram import DEFAULT_BUCKETS, Histogram, merge_histogram_snapshots
from repro.obs.profiler import (
    SamplingProfiler,
    fold_folded_text,
    top_functions_from_stacks,
)
from repro.obs.prometheus import render_prometheus, validate_prometheus
from repro.obs.report import ProcessRow, RunReport, StageRow
from repro.obs.tracer import Span, Tracer, new_span_id

__all__ = [
    "DEFAULT_BUCKETS",
    "EVENT_SCHEMA",
    "EventBus",
    "Histogram",
    "JsonlEventSink",
    "MemorySink",
    "ProcessRow",
    "RunReport",
    "SamplingProfiler",
    "Span",
    "StageRow",
    "Tracer",
    "chrome_trace_dict",
    "fold_folded_text",
    "last_run",
    "merge_histogram_snapshots",
    "new_span_id",
    "read_events",
    "render_prometheus",
    "top_functions_from_stacks",
    "validate_chrome_trace",
    "validate_event",
    "validate_events",
    "validate_prometheus",
    "write_chrome_trace",
]
