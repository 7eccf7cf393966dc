"""Serving-layer observability: execution counters and latency histograms.

:class:`ServiceMetrics` accumulates, per query class (``Q1``, ``Q2``,
``Q3``, ``Q5``, ``rollup``), how many requests the service executed and
a latency histogram of those executions.  Everything is exposed as a
plain ``dict`` (:meth:`ServiceMetrics.as_dict`), which the ``service``
section of the serving tier's ``/metrics`` route carries.

The service keeps no answers, so every request it serves runs the
explorer and counts as a miss.  The ``hits``/``hit_latency`` entries of
each class and the ``evictions``/``invalidations`` counters read 0;
they stay because ``/metrics`` readers index those paths.

The metrics object is a plain mutable accumulator; it relies on
:class:`repro.service.service.TaraService` for synchronization.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Upper bucket bounds, in seconds.  The final bucket is unbounded.
BUCKET_BOUNDS: Tuple[float, ...] = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)

#: Human labels, one per bound plus the overflow bucket.
BUCKET_LABELS: Tuple[str, ...] = (
    "<10us",
    "<100us",
    "<1ms",
    "<10ms",
    "<100ms",
    "<1s",
    ">=1s",
)


class LatencyHistogram:
    """Fixed-bucket latency histogram (seconds) with mean tracking."""

    def __init__(self) -> None:
        self.buckets: List[int] = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Record one observation of *seconds*."""
        index = 0
        for bound in BUCKET_BOUNDS:
            if seconds < bound:
                break
            index += 1
        self.buckets[index] += 1
        self.count += 1
        self.total_seconds += seconds

    @property
    def mean_seconds(self) -> float:
        """Mean observed latency, or 0.0 with no observations."""
        return self.total_seconds / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot: counts per bucket label plus summary."""
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "buckets": dict(zip(BUCKET_LABELS, self.buckets)),
        }


class ServiceMetrics:
    """Per-query-class execution counters for one :class:`TaraService`."""

    def __init__(self) -> None:
        self.misses: Dict[str, int] = {}
        self.miss_latency: Dict[str, LatencyHistogram] = {}
        self.storage: Dict[str, int] = {}

    def observe(self, query_class: str, seconds: float) -> None:
        """Record one execution of *query_class* taking *seconds*."""
        if query_class not in self.misses:
            self.misses[query_class] = 0
            self.miss_latency[query_class] = LatencyHistogram()
        self.misses[query_class] += 1
        self.miss_latency[query_class].record(seconds)

    def set_storage_counters(self, counters: Dict[str, int]) -> None:
        """Replace the storage-layer gauge snapshot.

        Populated when the served knowledge base is a lazy v2 load:
        shard/window touch counts and the decoded-series LRU accounting
        (``cache_hits`` / ``cache_misses`` / ``cache_evictions`` /
        ``cache_current_bytes`` / ...).  These are *gauges* sampled from
        :meth:`repro.core.lazykb.LazyTaraKnowledgeBase.storage_counters`,
        not accumulators, so the setter overwrites rather than adds.
        """
        self.storage = dict(counters)

    def requests(self, query_class: str) -> int:
        """Total requests served for *query_class*."""
        return self.misses.get(query_class, 0)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot of every counter and histogram."""
        classes: Dict[str, object] = {}
        for query_class, misses in self.misses.items():
            classes[query_class] = {
                "hits": 0,
                "misses": misses,
                "hit_latency": LatencyHistogram().as_dict(),
                "miss_latency": self.miss_latency[query_class].as_dict(),
            }
        return {
            "classes": classes,
            "evictions": 0,
            "invalidations": 0,
            "storage": dict(self.storage),
        }
