"""The online serving layer: region-keyed caching over the explorer.

The paper's interactivity argument rests on two facts: online
operations are pure index lookups, and the parameter space is carved
into time-aware stable regions within which every setting yields the
same answer.  This layer turns the second fact into a serving-time
win — :class:`TaraService` canonicalizes each Q1/Q2/Q3/Q5 request to an
all-integer stable-region key, memoizes answers in bounded LRUs
(:class:`repro.core.cache.RegionKeyedCache`), and tracks
hit/miss/latency per query class (:class:`ServiceMetrics`).  Every request executes against a
pinned MVCC snapshot (:meth:`TaraService.pin`): epoch-free answers
share a service-owned cache, generation-scoped answers live in the
snapshot's own segment and retire with it when
:class:`repro.core.IncrementalTara` publishes a successor and the last
reader drains.

See ``docs/serving.md`` for the design discussion.
"""

from repro.service.keys import (
    EPOCH_FREE,
    CacheKey,
    CanonicalQuery,
    canonicalize,
)
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.service import ServiceSource, TaraService

__all__ = [
    "CacheKey",
    "CanonicalQuery",
    "EPOCH_FREE",
    "LatencyHistogram",
    "ServiceMetrics",
    "ServiceSource",
    "TaraService",
    "canonicalize",
]
