"""Serving-layer observability: hit/miss counters and latency histograms.

:class:`ServiceMetrics` accumulates, per query class (``Q1``, ``Q2``,
``Q3``, ``Q5``, plus the uncached passthrough classes), cache hit/miss
counts and separate hit/miss latency histograms, together with global
eviction and invalidation counters.  Everything is exposed as a plain
``dict`` (:meth:`ServiceMetrics.as_dict`), which the ``service`` section
of the serving tier's ``/metrics`` route carries.

The metrics objects are plain mutable accumulators; like the cache they
rely on :class:`repro.service.service.TaraService` for synchronization.
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
    """Per-query-class serving counters for one :class:`TaraService`."""

    def __init__(self) -> None:
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.hit_latency: Dict[str, LatencyHistogram] = {}
        self.miss_latency: Dict[str, LatencyHistogram] = {}
        self.evictions = 0
        self.invalidations = 0
        self.storage: Dict[str, int] = {}
        self._order: List[str] = []

    def _register(self, query_class: str) -> None:
        if query_class not in self.hits:
            self.hits[query_class] = 0
            self.misses[query_class] = 0
            self.hit_latency[query_class] = LatencyHistogram()
            self.miss_latency[query_class] = LatencyHistogram()
            self._order.append(query_class)

    def observe(self, query_class: str, hit: bool, seconds: float) -> None:
        """Record one served request of *query_class* taking *seconds*."""
        self._register(query_class)
        if hit:
            self.hits[query_class] += 1
            self.hit_latency[query_class].record(seconds)
        else:
            self.misses[query_class] += 1
            self.miss_latency[query_class].record(seconds)

    def record_evictions(self, count: int) -> None:
        """Add *count* cache evictions to the global counter."""
        self.evictions += count

    def record_invalidations(self, count: int) -> None:
        """Add *count* epoch-invalidated entries to the global counter."""
        self.invalidations += count

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
        """Total requests served for *query_class* (hits + misses)."""
        return self.hits.get(query_class, 0) + self.misses.get(query_class, 0)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot of every counter and histogram."""
        classes: Dict[str, object] = {}
        for query_class in self._order:
            classes[query_class] = {
                "hits": self.hits[query_class],
                "misses": self.misses[query_class],
                "hit_latency": self.hit_latency[query_class].as_dict(),
                "miss_latency": self.miss_latency[query_class].as_dict(),
            }
        return {
            "classes": classes,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "storage": dict(self.storage),
        }
