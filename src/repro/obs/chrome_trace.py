"""Chrome-trace / Perfetto export of a traced run.

Converts the ``span.close`` events of a run's event log to the Trace
Event Format's "complete" (``ph: "X"``) events, one per span, so
``chrome://tracing`` or https://ui.perfetto.dev can open a GPF run:
pipeline/process spans on the driver thread row, task spans on their
executor-thread rows, with span attributes (partition, attempt, shuffle
bytes, cache hits) in ``args``.  The file is derived from
``events.jsonl``, never kept beside it: a span that is not in the log
is not in the trace.

Format reference: Trace Event Format, "JSON Object Format" — the
``traceEvents`` array plus optional metadata events naming processes and
threads.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.obs.profiler import SamplingProfiler


def chrome_trace_dict(
    events: Iterable[dict], profiler: "SamplingProfiler | None" = None
) -> dict:
    """One run's span events as a Trace Event Format JSON object.

    With a profiler attached, its bounded ring of raw samples becomes
    ``ph: "P"`` sample events on the same timeline — the leaf frame as
    the name, the full folded stack in ``args`` — so Perfetto shows
    where inside each span the samples landed.  Times are microseconds
    since the earliest span or sample.
    """
    timed: list[tuple[float, dict]] = []
    pids = set()
    tids = set()
    for event in events:
        if event.get("kind") != "span.close":
            continue
        pids.add(event["pid"])
        tids.add((event["pid"], event["tid"]))
        timed.append(
            (
                event["ts"] - event["dur"],
                {
                    "name": event["name"],
                    "cat": event["span_kind"],
                    "ph": "X",
                    "dur": event["dur"] * 1e6,
                    "pid": event["pid"],
                    "tid": event["tid"],
                    "args": dict(
                        event["attrs"],
                        span_id=event["span_id"],
                        parent_id=event["parent_id"],
                    ),
                },
            )
        )
    if profiler is not None:
        pid = os.getpid()
        for ts, tid, folded in profiler.raw_samples():
            pids.add(pid)
            timed.append(
                (
                    ts,
                    {
                        "name": folded.rsplit(";", 1)[-1],
                        "cat": "sample",
                        "ph": "P",
                        "pid": pid,
                        "tid": tid,
                        "args": {"stack": folded},
                    },
                )
            )
    origin = min((ts for ts, _ in timed), default=0.0)
    for ts, entry in timed:
        entry["ts"] = (ts - origin) * 1e6
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "gpf"},
        }
        for pid in sorted(pids)
    ]
    return {
        "traceEvents": metadata
        + sorted((entry for _, entry in timed), key=lambda e: e["ts"]),
        "displayTimeUnit": "ms",
        "otherData": {"origin_wall": origin, "threads": len(tids)},
    }


def write_chrome_trace(
    path: str, events: Iterable[dict], profiler: "SamplingProfiler | None" = None
) -> None:
    """Write the trace JSON file (open it in chrome://tracing / Perfetto)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace_dict(events, profiler), fh)


def validate_chrome_trace(trace: dict) -> list[str]:
    """Structural problems with a trace dict (empty = loadable)."""
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, event in enumerate(events):
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                problems.append(f"traceEvents[{i}]: missing {field!r}")
        if event.get("ph") == "X":
            for field in ("ts", "dur"):
                if not isinstance(event.get(field), (int, float)):
                    problems.append(f"traceEvents[{i}]: non-numeric {field!r}")
                elif field == "dur" and event[field] < 0:
                    problems.append(f"traceEvents[{i}]: negative dur")
    return problems
