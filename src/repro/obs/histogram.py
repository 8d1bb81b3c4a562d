"""Fixed-bucket log-spaced latency histograms.

Means hide the tail: the cluster-simulator oracle and the serve layer's
SLOs both need per-stage latency *distributions* (p50/p95/p99), not
averages.  :class:`Histogram` is the one latency container used
everywhere — task durations, queue waits, decode batches, HTTP request
latencies — with a deliberately boring design:

- **Fixed log-spaced buckets** shared by every instance (4 per decade
  from 100µs to 10ks).  Fixed bounds make histograms *mergeable*: the
  serve ``/metrics`` fold across workers is a bucket-wise sum, which is
  exact — unlike folding precomputed percentiles, which is meaningless.
- **Quantile estimation** by log-linear interpolation inside the bucket
  that crosses the target rank; the error is bounded by the bucket
  width (~78% ratio per bucket, so estimates are within ~2x worst case
  and far closer in practice).
- **Compact snapshots**: only non-empty buckets serialize, so the
  ``telemetry`` event and ``RunReport`` payloads stay small.
"""

from __future__ import annotations

from bisect import bisect_left

#: Shared bucket upper bounds (seconds): 4 per decade, 100µs .. 10_000s.
#: Every histogram uses these, which is what makes cross-worker merges
#: exact (bucket-wise addition) and Prometheus exposition trivial.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    round(1e-4 * 10 ** (k / 4), 10) for k in range(33)
)

#: Log-spacing ratio between adjacent bucket bounds (10^(1/4)).
_RATIO = 10 ** 0.25


class Histogram:
    """One log-bucketed value distribution; **not** thread-safe on its
    own — :class:`~repro.engine.metrics.MetricsRegistry` serializes
    access for the shared instances."""

    __slots__ = ("count", "sum", "min", "max", "_counts")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        # One slot per bound plus the +Inf overflow slot.
        self._counts = [0] * (len(DEFAULT_BUCKETS) + 1)

    # -- recording ----------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0:
            value = 0.0
        self._counts[bisect_left(DEFAULT_BUCKETS, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    # -- quantiles ----------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1]; 0.0 when empty."""
        if self.count == 0:
            return 0.0
        q = min(1.0, max(0.0, q))
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                if i >= len(DEFAULT_BUCKETS):
                    # Overflow bucket: the upper bound is unknown; report
                    # the largest value actually seen.
                    return self.max if self.max is not None else DEFAULT_BUCKETS[-1]
                upper = DEFAULT_BUCKETS[i]
                lower = upper / _RATIO if i else 0.0
                # Linear interpolation of the rank within the bucket.
                into = (target - (cumulative - bucket_count)) / bucket_count
                return lower + (upper - lower) * into
        return self.max if self.max is not None else 0.0

    def percentiles(self) -> dict[str, float]:
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    # -- merge / export ------------------------------------------------------
    def merge(self, other: "Histogram") -> None:
        """Bucket-wise fold of another histogram (exact, same bounds)."""
        self.count += other.count
        self.sum += other.sum
        for i, n in enumerate(other._counts):
            self._counts[i] += n
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def merge_snapshot(self, snapshot: dict) -> None:
        self.merge(Histogram.from_snapshot(snapshot))

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts, overflow slot last."""
        return list(self._counts)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` pairs, +Inf last."""
        out: list[tuple[float, int]] = []
        cumulative = 0
        for bound, n in zip(DEFAULT_BUCKETS, self._counts):
            cumulative += n
            out.append((bound, cumulative))
        out.append((float("inf"), cumulative + self._counts[-1]))
        return out

    def snapshot(self) -> dict:
        """JSON-ready copy: only non-empty buckets, plus the quantiles.

        ``buckets`` maps the bucket *index* (stringified for JSON) to its
        count; index ``len(DEFAULT_BUCKETS)`` is the overflow slot.
        Indexes, not bounds, so float formatting can never split one
        bucket into two on a round-trip.
        """
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {
                str(i): n for i, n in enumerate(self._counts) if n
            },
            **self.percentiles(),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "Histogram":
        """Rebuild from :meth:`snapshot` output (tolerates missing keys)."""
        hist = cls()
        try:
            hist.count = int(snapshot.get("count", 0))
            hist.sum = float(snapshot.get("sum", 0.0))
        except (TypeError, ValueError):
            hist.count, hist.sum = 0, 0.0
        hist.min = snapshot.get("min")
        hist.max = snapshot.get("max")
        for key, n in (snapshot.get("buckets") or {}).items():
            try:
                index = int(key)
            except (TypeError, ValueError):
                continue
            if 0 <= index < len(hist._counts):
                hist._counts[index] += int(n)
        return hist

    def __repr__(self) -> str:
        p = self.percentiles()
        return (
            f"<Histogram n={self.count} mean={self.mean:.4g} "
            f"p50={p['p50']:.4g} p99={p['p99']:.4g}>"
        )


def merge_histogram_snapshots(snapshots: list[dict]) -> dict:
    """Fold several :meth:`Histogram.snapshot` dicts into one (exact)."""
    merged = Histogram()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()
