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

Three value families, three fold semantics across workers:

- **counters** — monotonic totals; fold by summing.
- **gauges** — point-in-time values; each name carries an explicit
  *fold policy* (:data:`GAUGE_FOLD_POLICIES`): ``sum`` for capacity
  gauges (bytes held), ``max``/``last`` for level gauges, ``derived``
  for values recomputed from other folded gauges (a summed ratio is
  nonsense — see ``blockmanager.compression_ratio``).
- **histograms** — fixed-bucket latency distributions
  (:class:`~repro.obs.histogram.Histogram`); fold bucket-wise, which is
  exact.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from repro.obs.histogram import Histogram

#: Gauge name -> fold policy ("sum" | "max" | "last" | "derived").
#: Unlisted gauges default to "sum" (the safe choice for byte/capacity
#: gauges, which dominate).  Register point-in-time gauges explicitly.
GAUGE_FOLD_POLICIES: dict[str, str] = {
    "blockmanager.compressed_bytes": "sum",
    "blockmanager.logical_bytes": "sum",
    "block.memory_bytes": "sum",
    "block.disk_bytes": "sum",
    "blockmanager.compression_ratio": "derived",
    # One fleet is shared by every serve-context on the box; summing the
    # per-context views would multiply-count the same workers.
    "dist.workers": "max",
}

#: name -> fn(folded_gauges) -> value | None, for policy "derived".
#: Runs after the non-derived gauges folded; returning None falls back
#: to the max of the workers' own values (still a point-in-time fold,
#: never a sum).
DERIVED_GAUGES: dict[str, Callable[[dict], float | None]] = {}


def register_gauge_fold(
    name: str,
    policy: str,
    derive: Callable[[dict], float | None] | None = None,
) -> None:
    """Declare how one gauge name folds across workers."""
    if policy not in ("sum", "max", "last", "derived"):
        raise ValueError(f"unknown gauge fold policy {policy!r}")
    if policy == "derived" and derive is None and name not in DERIVED_GAUGES:
        raise ValueError(f"derived gauge {name!r} needs a derive function")
    GAUGE_FOLD_POLICIES[name] = policy
    if derive is not None:
        DERIVED_GAUGES[name] = derive


def gauge_fold_policy(name: str) -> str:
    return GAUGE_FOLD_POLICIES.get(name, "sum")


def _derive_compression_ratio(gauges: dict) -> float | None:
    compressed = gauges.get("blockmanager.compressed_bytes", 0)
    if not compressed:
        return None
    return gauges.get("blockmanager.logical_bytes", 0) / compressed


register_gauge_fold(
    "blockmanager.compression_ratio", "derived", _derive_compression_ratio
)


def fold_gauges(snapshots: Iterable[dict]) -> dict[str, float]:
    """Fold per-worker gauge dicts into fleet-wide values by policy.

    This is the mechanism behind ``PipelineService.metrics()``: byte
    gauges sum, level gauges take max/last, and derived gauges (ratios)
    are recomputed from the already-folded inputs instead of being
    summed into garbage.
    """
    folded: dict[str, float] = {}
    deferred: dict[str, float] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            policy = gauge_fold_policy(name)
            if policy == "derived":
                # Point-in-time fallback while deferring the recompute.
                if name not in deferred or value > deferred[name]:
                    deferred[name] = value
            elif policy == "max":
                if name not in folded or value > folded[name]:
                    folded[name] = value
            elif policy == "last":
                folded[name] = value
            else:  # sum
                folded[name] = folded.get(name, 0) + value
    for name, fallback in deferred.items():
        derive = DERIVED_GAUGES.get(name)
        value = derive(folded) if derive is not None else None
        folded[name] = fallback if value is None else value
    return folded


def fold_histograms(snapshot_maps: Iterable[dict]) -> dict[str, dict]:
    """Fold per-worker ``{name: histogram_snapshot}`` maps bucket-wise."""
    merged: dict[str, Histogram] = {}
    for snapshot_map in snapshot_maps:
        for name, snapshot in snapshot_map.items():
            hist = merged.get(name)
            if hist is None:
                hist = merged[name] = Histogram()
            hist.merge_snapshot(snapshot)
    return {name: hist.snapshot() for name, hist in merged.items()}


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

    def histograms(self) -> dict[str, dict]:
        """Snapshot of every histogram: ``{name: Histogram.snapshot()}``."""
        with self._lock:
            return {name: h.snapshot() for name, h in self._histograms.items()}

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
