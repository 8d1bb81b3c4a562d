import math

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Histogram,
    RunReport,
    TelemetryRegistry,
    fold_gauges,
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


class TestTelemetryObserve:
    def test_observe_feeds_named_histogram(self):
        reg = TelemetryRegistry()
        reg.observe("task.seconds", 0.5)
        reg.observe("task.seconds", 1.5)
        assert reg.histogram("task.seconds").count == 2
        snap = reg.snapshot()
        assert "task.seconds" in snap["histograms"]

    def test_reset_clears_histograms(self):
        reg = TelemetryRegistry()
        reg.observe("x", 1.0)
        reg.reset()
        assert reg.snapshot()["histograms"] == {}


class TestGaugeFold:
    def test_point_in_time_gauges_are_not_summed(self):
        # Two contexts at 2.0x each are 2.0x together, not 4.0x: the ratio
        # is no gauge, so the fold sums only the bytes it derives from.
        context = {
            "blockmanager.compressed_bytes": 100,
            "blockmanager.logical_bytes": 200,
        }
        folded = fold_gauges([dict(context), dict(context)])
        assert "blockmanager.compression_ratio" not in folded
        assert folded["blockmanager.compressed_bytes"] == 200
        memory = RunReport(gauges=folded).memory_summary()
        assert memory["compression_ratio"] == pytest.approx(2.0)

    def test_derived_ratio_recomputed_from_folded_bytes(self):
        a = {"blockmanager.compressed_bytes": 100, "blockmanager.logical_bytes": 300}
        b = {"blockmanager.compressed_bytes": 300, "blockmanager.logical_bytes": 300}
        folded = fold_gauges([a, b])
        # Fleet-wide truth: 600 logical over 400 compressed = 1.5x, which
        # neither sum (4.0) nor max (3.0) of the per-context ratios gives.
        memory = RunReport(gauges=folded).memory_summary()
        assert memory["compression_ratio"] == pytest.approx(1.5)

    def test_registered_policy_applies(self):
        # The one level gauge: every context sees the same shared fleet.
        folded = fold_gauges([{"dist.workers": 2}, {"dist.workers": 3}])
        assert folded["dist.workers"] == 3

    def test_default_policy_sums(self):
        folded = fold_gauges([{"bytes": 1}, {"bytes": 2}])
        assert folded["bytes"] == 3


class TestFoldHistograms:
    def test_same_name_merges_across_workers(self):
        a, b = Histogram(), Histogram()
        a.observe(0.01)
        b.observe(0.02)
        folded = TelemetryRegistry()
        folded.merge({"histograms": {"task.seconds": a.snapshot()}})
        folded.merge({"histograms": {"task.seconds": b.snapshot()}})
        assert folded.histogram("task.seconds").count == 2

    def test_disjoint_names_both_survive(self):
        a, b = Histogram(), Histogram()
        a.observe(0.01)
        b.observe(0.02)
        folded = TelemetryRegistry()
        folded.merge({"histograms": {"one": a.snapshot()}})
        folded.merge({"histograms": {"two": b.snapshot()}})
        assert set(folded.snapshot()["histograms"]) == {"one", "two"}
