import math

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Histogram,
    merge_histogram_snapshots,
)


class TestBuckets:
    def test_log_spaced_four_per_decade(self):
        for lo, hi in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]):
            assert hi / lo == pytest.approx(10 ** 0.25, rel=1e-6)

    def test_covers_microseconds_to_hours(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_BUCKETS[-1] >= 3600.0


class TestHistogram:
    def test_count_sum_mean(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(0.006)
        assert h.mean == pytest.approx(0.002)

    def test_negative_observations_clamp_to_zero(self):
        h = Histogram()
        h.observe(-1.0)
        assert h.count == 1
        assert h.sum == 0.0
        assert h.quantile(0.5) >= 0.0

    def test_quantiles_bracket_true_values(self):
        h = Histogram()
        values = [i / 1000.0 for i in range(1, 1001)]  # 1ms .. 1s uniform
        for v in values:
            h.observe(v)
        # Log-spaced buckets: each estimate is within one bucket ratio
        # of the true quantile.
        ratio = 10 ** 0.25
        for q, true in ((0.5, 0.5), (0.95, 0.95), (0.99, 0.99)):
            est = h.quantile(q)
            assert true / ratio <= est <= true * ratio

    def test_percentiles_keys(self):
        h = Histogram()
        h.observe(0.01)
        assert set(h.percentiles()) == {"p50", "p95", "p99"}

    def test_overflow_bucket_reports_observed_max(self):
        h = Histogram()
        huge = DEFAULT_BUCKETS[-1] * 100
        h.observe(huge)
        assert h.quantile(0.99) == pytest.approx(huge)

    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_merge_is_bucketwise(self):
        a, b = Histogram(), Histogram()
        for v in (0.001, 0.01):
            a.observe(v)
        for v in (0.1, 1.0):
            b.observe(v)
        a.merge(b)
        assert a.count == 4
        assert a.sum == pytest.approx(1.111)

    def test_snapshot_round_trip(self):
        h = Histogram()
        for v in (0.0005, 0.02, 3.0, 1e6):
            h.observe(v)
        clone = Histogram.from_snapshot(h.snapshot())
        assert clone.count == h.count
        assert clone.sum == pytest.approx(h.sum)
        assert clone.bucket_counts() == h.bucket_counts()
        assert clone.quantile(0.95) == pytest.approx(h.quantile(0.95))

    def test_from_snapshot_tolerates_junk(self):
        h = Histogram.from_snapshot({"buckets": {"not-an-int": 3}, "count": "x"})
        assert h.count == 0

    def test_cumulative_buckets_end_at_inf_total(self):
        h = Histogram()
        for v in (0.001, 0.002, 5.0):
            h.observe(v)
        cumulative = h.cumulative_buckets()
        les = [le for le, _ in cumulative]
        counts = [c for _, c in cumulative]
        assert les[-1] == math.inf
        assert counts[-1] == 3
        assert counts == sorted(counts)

    def test_merge_snapshots_module_helper(self):
        a, b = Histogram(), Histogram()
        a.observe(0.01)
        b.observe(0.02)
        merged = merge_histogram_snapshots([a.snapshot(), b.snapshot()])
        assert Histogram.from_snapshot(merged).count == 2
