"""Named counters, gauges, and latency histograms shared by every
engine subsystem.

Before this registry existed, each subsystem hoarded private counters —
the likelihood cache counted hits internally, the block manager had
``BlockStats``, the quarantine sink its own per-format dict — and no
single surface reported them.  The :class:`TelemetryRegistry` gives them
one namespace (``shuffle.bytes_written``, ``quarantine.fastq``,
``likelihood_cache.hits``, ...) that the run report and the final
``telemetry`` event render.

It *composes with* the existing :class:`~repro.engine.metrics.MetricsRegistry`
rather than replacing it: per-task/stage timing stays in MetricsRegistry;
this registry holds the named whole-run counts.

Three value families, folded across contexts and workers:

- **counters** — monotonic totals; fold by summing.
- **gauges** — point-in-time byte or level values; fold by summing
  (:func:`fold_gauges`), except the :data:`MAX_GAUGES` levels.  No ratio
  is stored as a gauge: a ratio is derived from the byte gauges where it
  is read (``RunReport.memory_summary``), so a sum never mangles one.
- **histograms** — fixed-bucket latency distributions
  (:class:`~repro.obs.histogram.Histogram`); fold bucket-wise, which is
  exact (:meth:`TelemetryRegistry.merge`).
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.obs.histogram import Histogram

#: Gauges that fold by max, not sum: one fleet is shared by every serve
#: context on the box, so summing their views would count it repeatedly.
MAX_GAUGES = frozenset({"dist.workers"})


def fold_gauges(snapshots: Iterable[dict]) -> dict[str, float]:
    """Fold per-context gauge dicts: sum, or max for :data:`MAX_GAUGES`."""
    folded: dict[str, float] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if name in MAX_GAUGES:
                folded[name] = max(folded.get(name, value), value)
            else:
                folded[name] = folded.get(name, 0) + value
    return folded


class TelemetryRegistry:
    """Thread-safe map of counter, gauge, and histogram values."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- counters -----------------------------------------------------------
    def inc(self, name: str, delta: float = 1) -> None:
        """Add ``delta`` to a monotonically increasing counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    # -- gauges -------------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time value (cache sizes, memory bytes)."""
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    # -- histograms ---------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named latency histogram."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def histogram(self, name: str) -> Histogram | None:
        """The live histogram object (shared; registry-lock discipline)."""
        with self._lock:
            return self._histograms.get(name)

    # -- export -------------------------------------------------------------
    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def snapshot(self) -> dict:
        """Copy of everything: counters, gauges, histogram snapshots."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: h.snapshot() for name, h in self._histograms.items()
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` in (a shipped task's
        partial telemetry): counters add, histograms merge bucket-wise.
        Gauges are the sender's point-in-time values and are not folded.
        """
        with self._lock:
            for name, delta in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + delta
            for name, hist_snapshot in snapshot.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = Histogram()
                hist.merge_snapshot(hist_snapshot)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
