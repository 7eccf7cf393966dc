"""The thread-safe online serving façade over the TARA explorer.

:class:`TaraService` answers the explorer's Q1/Q2/Q3/Q5 request classes
(and roll-ups) against **pinned snapshots**
(:class:`repro.core.Snapshot`): it pins the current view, canonicalizes
the request against it (:mod:`repro.service.keys`), runs the pinned
snapshot's explorer on the resolved request, and records the execution
time per query class (:class:`ServiceMetrics`).  There is no epoch
re-check anywhere: an answer computed under a pin is correct for that
pin by construction.

The service keeps no answers.  The served path's one answer cache is
the serving tier's byte cache (:class:`repro.serve.respcache.ResponseCache`),
keyed by the same region keys, which keeps a key's encoded bytes from
its second ask on.  Every answer returned here is freshly computed and
caller-owned, and Q2/Q3 answers echo the caller's own float settings,
because the resolved request keeps them.

Concurrency: one lock guards the metrics; execution runs outside it,
so a slow query does not serialize the service.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Union, overload

from repro.common.errors import ValidationError
from repro.common.timing import stopwatch
from repro.core.builder import TaraKnowledgeBase
from repro.core.explorer import ExplorerAnswer, TaraExplorer
from repro.core.incremental import IncrementalTara
from repro.core.queries import (
    CompareQuery,
    ComparisonResult,
    ContentQuery,
    ExplorerQuery,
    Recommendation,
    RecommendQuery,
    RollupAnswer,
    RollupQuery,
    RuleTrajectory,
    TrajectoryQuery,
)
from repro.core.snapshot import Snapshot, SnapshotHandle
from repro.data.transactions import Transaction
from repro.mining.rules import RuleId
from repro.service.keys import CanonicalQuery, canonicalize
from repro.service.metrics import ServiceMetrics

#: Sources a service can wrap.
ServiceSource = Union[TaraKnowledgeBase, TaraExplorer, IncrementalTara]


class TaraService:
    """Thread-safe query serving over one TARA knowledge base.

    Wraps a :class:`TaraKnowledgeBase`, an existing
    :class:`TaraExplorer` (both served as a single static snapshot), or
    an :class:`IncrementalTara` publisher (in which case every request
    pins whatever snapshot is current; publishes never disturb requests
    already in flight).
    """

    def __init__(self, source: ServiceSource) -> None:
        self._lock = threading.Lock()
        self.metrics = ServiceMetrics()
        # Exactly one of the two is set, in __init__, and never rebound:
        # either we front a publisher, or we hold one static snapshot
        # pinned for the service's whole lifetime.
        self._publisher: Optional[IncrementalTara] = None
        self._static: Optional[Snapshot] = None
        if isinstance(source, IncrementalTara):
            self._publisher = source
        elif isinstance(source, TaraExplorer):
            static = Snapshot(
                source.knowledge_base.window_count,
                source.knowledge_base,
                explorer=source,
            )
            static.pin()
            self._static = static
        elif isinstance(source, TaraKnowledgeBase):
            static = Snapshot(source.window_count, source)
            static.pin()
            self._static = static
        else:
            raise ValidationError(
                f"cannot serve from a {type(source).__name__!r}"
            )

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def pin(self) -> SnapshotHandle:
        """Pin the current snapshot; release promptly (``with`` it).

        Against a publisher this is the MVCC read barrier: the returned
        view is immutable and survives any number of concurrent
        publishes until the handle is released.  Against a static
        source it pins the service's single long-lived snapshot.
        """
        if self._publisher is not None:
            return self._publisher.snapshot()
        assert self._static is not None
        return self._static.handle()

    @property
    def knowledge_base(self) -> TaraKnowledgeBase:
        """The knowledge base of the currently published snapshot."""
        if self._publisher is not None:
            return self._publisher.knowledge_base
        assert self._static is not None
        return self._static.knowledge_base

    @property
    def epoch(self) -> int:
        """Epoch of the currently published snapshot."""
        with self.pin() as snapshot:
            return snapshot.epoch

    def metrics_snapshot(self) -> Dict[str, object]:
        """Service-tier metrics dict with fresh storage gauges.

        When the served knowledge base is a lazy v2 load
        (:class:`repro.core.lazykb.LazyTaraKnowledgeBase`), its
        shard-touch and decoded-series LRU counters are sampled into the
        metrics' storage section first, so ``/metrics`` and the bench
        artefacts see eviction pressure without polling the reader
        directly.  Eagerly loaded knowledge bases have no storage
        section.
        """
        sampler = getattr(self.knowledge_base, "storage_counters", None)
        counters = sampler() if callable(sampler) else None
        with self._lock:
            if counters is not None:
                self.metrics.set_storage_counters(counters)
            return self.metrics.as_dict()

    def snapshot_stats(self) -> Dict[str, object]:
        """Publisher/snapshot introspection for ``GET /v1/snapshot``."""
        if self._publisher is not None:
            return self._publisher.snapshot_stats()
        assert self._static is not None
        static = self._static
        return {
            "epoch": static.epoch,
            "windows": static.window_count,
            "refs": static.refs,
            "building": False,
            "retired_snapshots": 0,
            "retired_entries": 0,
        }

    def publish(
        self, batches: Iterable[Sequence[Transaction]]
    ) -> Snapshot:
        """Forward a publish to the wrapped publisher.

        Raises :class:`ValidationError` when the service fronts a
        static source (nothing can be appended to it).
        """
        if self._publisher is None:
            raise ValidationError(
                "this service fronts a static knowledge base; "
                "serve an IncrementalTara to accept appends"
            )
        return self._publisher.publish(batches)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    @overload
    def execute(self, query: TrajectoryQuery) -> List[RuleTrajectory]: ...

    @overload
    def execute(self, query: CompareQuery) -> ComparisonResult: ...

    @overload
    def execute(self, query: RecommendQuery) -> Recommendation: ...

    @overload
    def execute(self, query: ContentQuery) -> Dict[int, List[RuleId]]: ...

    @overload
    def execute(self, query: RollupQuery) -> RollupAnswer: ...

    def execute(self, query: ExplorerQuery) -> ExplorerAnswer:
        """Serve one request against a freshly pinned snapshot."""
        with self.pin() as snapshot:
            canonical = canonicalize(
                query, snapshot.knowledge_base, snapshot.epoch
            )
            return self.execute_on(snapshot, query, canonical)

    def execute_on(
        self,
        snapshot: Snapshot,
        query: ExplorerQuery,
        canonical: CanonicalQuery,
    ) -> ExplorerAnswer:
        """Serve one request against an already-pinned *snapshot*.

        *canonical* is *query* canonicalized against *snapshot*: the
        serving gateway pins once per request, canonicalizes against
        that pin (so coalescing and execution observe one view), and
        hands its canonical form on, so a served request is
        canonicalized once.  The answer is the pinned explorer's for
        ``canonical.resolved``, which keeps *query*'s own thresholds.
        The caller owns the pin and must hold it until the answer is
        returned.
        """
        with stopwatch() as clock:
            answer = snapshot.explorer().execute(canonical.resolved)
        with self._lock:
            self.metrics.observe(canonical.query_class, clock.seconds)
        return answer

    def uncached(self, query: ExplorerQuery) -> ExplorerAnswer:
        """Execute *query* on a pinned snapshot, recording no metrics.

        The tests and the benchmark's body verification use this to
        check that served answers equal freshly computed ones.
        """
        with self.pin() as snapshot:
            canonical = canonicalize(
                query, snapshot.knowledge_base, snapshot.epoch
            )
            return snapshot.explorer().execute(canonical.resolved)
