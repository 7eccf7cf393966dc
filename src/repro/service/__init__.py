"""The online serving layer: pinned, region-keyed execution over the explorer.

The paper's interactivity argument rests on two facts: online
operations are pure index lookups, and the parameter space is carved
into time-aware stable regions within which every setting yields the
same answer.  :class:`TaraService` canonicalizes each Q1/Q2/Q3/Q5
request to an all-integer stable-region key
(:func:`canonicalize`), executes it against a pinned MVCC snapshot
(:meth:`TaraService.pin`), and tracks executions and latency per query
class (:class:`ServiceMetrics`).  The serving tier keys its byte cache
(:class:`repro.serve.respcache.ResponseCache`) and its request
coalescer by the same region keys; the service itself keeps no
answers.

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
