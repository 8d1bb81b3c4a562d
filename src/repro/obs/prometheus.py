"""Prometheus text exposition (format 0.0.4) for the metrics plane.

``GET /metrics?format=prometheus`` renders the same dict
:meth:`~repro.serve.service.PipelineService.metrics` returns as JSON —
service counters, health, engine counters/gauges folded across workers,
and latency histograms — in the text format every Prometheus-compatible
scraper ingests:

- service totals become ``gpf_service_<name>_total`` counters; the
  point-in-time queue/running/draining numbers become gauges;
- engine counters become ``gpf_<name>_total``; engine gauges keep their
  value as-is (the service already folded them);
- each histogram renders the canonical triplet: cumulative
  ``_bucket{le="..."}`` series ending in ``le="+Inf"``, ``_sum``, and
  ``_count``.

:func:`validate_prometheus` is the line-format checker CI runs against
live output: every line must be a comment or a well-formed sample, a
declared ``# TYPE`` must precede that metric's samples, and histogram
buckets must be cumulative with ``+Inf`` equal to ``_count``.
"""

from __future__ import annotations

import math
import re

from repro.obs.histogram import Histogram

__all__ = ["render_prometheus", "validate_prometheus"]

#: Service-dict fields that are point-in-time levels, not totals.
_SERVICE_GAUGES = ("queued", "running", "draining")

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_METRIC_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)"
    r"( [0-9]+)?$"  # optional timestamp
)
_LABELS_RE = re.compile(r'^\{([a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*\}$')


def _metric_name(name: str, namespace: str) -> str:
    return f"{namespace}_{_NAME_RE.sub('_', name)}"


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        return f"{value:.10g}"
    return str(value)


def _fmt_bound(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else f"{bound:.10g}"


def _render_simple(
    lines: list[str], name: str, mtype: str, value, help_text: str = ""
) -> None:
    if help_text:
        lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {mtype}")
    lines.append(f"{name} {_fmt_value(value)}")


def _render_histogram(
    lines: list[str], name: str, snapshot: dict, help_text: str = ""
) -> None:
    hist = Histogram.from_snapshot(snapshot)
    if help_text:
        lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} histogram")
    for bound, cumulative in hist.cumulative_buckets():
        lines.append(
            f'{name}_bucket{{le="{_fmt_bound(bound)}"}} {cumulative}'
        )
    lines.append(f"{name}_sum {_fmt_value(hist.sum)}")
    lines.append(f"{name}_count {hist.count}")


def render_prometheus(metrics: dict, namespace: str = "gpf") -> str:
    """Render a ``PipelineService.metrics()`` dict as exposition text."""
    lines: list[str] = []

    service = metrics.get("service") or {}
    for name in sorted(service):
        value = service[name]
        if isinstance(value, bool):
            pass  # draining: a 0/1 gauge
        elif not isinstance(value, (int, float)):
            continue
        metric = _metric_name(f"service_{name}", namespace)
        if name in _SERVICE_GAUGES:
            _render_simple(lines, metric, "gauge", value)
        else:
            _render_simple(lines, metric + "_total", "counter", value)

    health = metrics.get("health") or {}
    state = health.get("state")
    if isinstance(state, str):
        metric = _metric_name("health_state", namespace)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(
            f'{metric}{{state="{_NAME_RE.sub("_", state)}"}} 1'
        )
    for name in sorted(health):
        value = health[name]
        if name == "state" or isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            _render_simple(
                lines, _metric_name(f"health_{name}", namespace), "gauge", value
            )

    for name in sorted(metrics.get("counters") or {}):
        value = metrics["counters"][name]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            _render_simple(
                lines, _metric_name(name, namespace) + "_total", "counter", value
            )

    for name in sorted(metrics.get("gauges") or {}):
        value = metrics["gauges"][name]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            _render_simple(lines, _metric_name(name, namespace), "gauge", value)

    for name in sorted(metrics.get("histograms") or {}):
        snapshot = metrics["histograms"][name]
        if isinstance(snapshot, dict):
            # All histograms record seconds; suffix per convention, but
            # don't double it when the name already says so.
            metric = _metric_name(name, namespace)
            if not metric.endswith("_seconds"):
                metric += "_seconds"
            _render_histogram(lines, metric, snapshot)

    return "\n".join(lines) + ("\n" if lines else "")


def _parse_value(raw: str) -> float | None:
    if raw in ("+Inf", "Inf"):
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        return None


def _base_name(name: str) -> str:
    """Histogram sample suffixes map to the declared metric name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def validate_prometheus(text: str) -> list[str]:
    """Problems with one exposition document (empty list = valid)."""
    problems: list[str] = []
    declared: dict[str, str] = {}
    sampled: dict[str, int] = {}
    buckets: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                problems.append(f"line {lineno}: malformed comment: {line!r}")
            elif parts[1] == "TYPE":
                mtype = parts[3] if len(parts) > 3 else "untyped"
                if mtype not in (
                    "counter", "gauge", "histogram", "summary", "untyped",
                ):
                    problems.append(
                        f"line {lineno}: unknown metric type {mtype!r}"
                    )
                    continue
                if parts[2] in sampled:
                    problems.append(
                        f"line {lineno}: # TYPE {parts[2]} follows its "
                        f"samples (first at line {sampled[parts[2]]})"
                    )
                declared[parts[2]] = mtype
            continue
        match = _METRIC_LINE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name = match.group("name")
        labels = match.group("labels")
        if labels and not _LABELS_RE.match(labels):
            problems.append(f"line {lineno}: malformed labels: {labels!r}")
            continue
        value = _parse_value(match.group("value"))
        if value is None:
            problems.append(
                f"line {lineno}: bad sample value {match.group('value')!r}"
            )
            continue
        base = _base_name(name)
        sampled.setdefault(name, lineno)
        sampled.setdefault(base, lineno)
        # Untyped samples are legal; TYPE, when declared, must precede
        # its samples (checked on the declaration line above).
        mtype = declared.get(name) or declared.get(base)
        if mtype is None:
            continue
        if mtype == "histogram":
            if name.endswith("_bucket"):
                le_match = re.search(r'le="([^"]*)"', labels or "")
                if le_match is None:
                    problems.append(
                        f"line {lineno}: histogram bucket without le label"
                    )
                    continue
                bound = _parse_value(le_match.group(1))
                if bound is None:
                    problems.append(
                        f"line {lineno}: bad le bound {le_match.group(1)!r}"
                    )
                    continue
                buckets.setdefault(base, []).append((bound, value))
            elif name.endswith("_count"):
                counts[base] = value
    for base, series in buckets.items():
        previous = -math.inf
        saw_inf = False
        for bound, value in series:
            if value < previous:
                problems.append(
                    f"histogram {base!r}: bucket counts not cumulative "
                    f"(le={_fmt_bound(bound)} has {value} < {previous})"
                )
            previous = value
            if math.isinf(bound):
                saw_inf = True
                if base in counts and value != counts[base]:
                    problems.append(
                        f"histogram {base!r}: +Inf bucket {value} != "
                        f"_count {counts[base]}"
                    )
        if not saw_inf:
            problems.append(f"histogram {base!r}: missing +Inf bucket")
    return problems
