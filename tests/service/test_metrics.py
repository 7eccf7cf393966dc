"""Counter and histogram accounting of the serving metrics."""

from repro.service import LatencyHistogram, ServiceMetrics
from repro.service.metrics import BUCKET_LABELS


class TestLatencyHistogram:
    def test_bucket_assignment(self):
        histogram = LatencyHistogram()
        histogram.record(5e-6)   # <10us
        histogram.record(5e-4)   # <1ms
        histogram.record(2.0)    # >=1s
        snapshot = histogram.as_dict()
        buckets = snapshot["buckets"]
        assert buckets["<10us"] == 1
        assert buckets["<1ms"] == 1
        assert buckets[">=1s"] == 1
        assert snapshot["count"] == 3

    def test_mean_tracks_total(self):
        histogram = LatencyHistogram()
        assert histogram.mean_seconds == 0.0
        histogram.record(0.1)
        histogram.record(0.3)
        assert abs(histogram.mean_seconds - 0.2) < 1e-12

    def test_counts_reconcile_with_buckets(self):
        histogram = LatencyHistogram()
        for value in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0):
            histogram.record(value)
        assert sum(histogram.buckets) == histogram.count == 8
        assert set(histogram.as_dict()["buckets"]) == set(BUCKET_LABELS)


class TestServiceMetrics:
    def test_hits_misses_and_histograms_reconcile(self):
        metrics = ServiceMetrics()
        metrics.observe("Q1", hit=False, seconds=0.01)
        metrics.observe("Q1", hit=True, seconds=0.0001)
        metrics.observe("Q1", hit=True, seconds=0.0002)
        metrics.observe("Q3", hit=False, seconds=0.002)
        assert metrics.requests("Q1") == 3
        assert metrics.hits["Q1"] == 2 and metrics.misses["Q1"] == 1
        assert metrics.hit_latency["Q1"].count == 2
        assert metrics.miss_latency["Q1"].count == 1
        assert metrics.requests("Q3") == 1
        assert metrics.requests("Q5") == 0

    def test_eviction_and_invalidation_counters(self):
        metrics = ServiceMetrics()
        metrics.record_evictions(2)
        metrics.record_evictions(1)
        metrics.record_invalidations(5)
        assert metrics.evictions == 3
        assert metrics.invalidations == 5

    def test_as_dict_shape(self):
        metrics = ServiceMetrics()
        metrics.observe("Q2", hit=False, seconds=0.5)
        snapshot = metrics.as_dict()
        assert snapshot["evictions"] == 0
        q2 = snapshot["classes"]["Q2"]
        assert q2["hits"] == 0 and q2["misses"] == 1
        assert q2["miss_latency"]["count"] == 1
