"""The thread-safe online serving façade over the TARA explorer.

:class:`TaraService` answers the explorer's Q1/Q2/Q3/Q5 request classes
through bounded, region-keyed LRU caches:

1. every request is canonicalized (:mod:`repro.service.keys`) to an
   all-integer key built from stable-region ids, so two settings inside
   one time-aware stable region share a single cache entry;
2. answers are stored *frozen* (immutable containers) and *thawed* on
   the way out — callers receive fresh mutable containers and answers
   that echo their own request's float settings, never another
   caller's region-equivalent ones;
3. every request executes against a **pinned snapshot**
   (:class:`repro.core.Snapshot`): the service pins the current view,
   canonicalizes and answers against it, and releases the pin when the
   answer is thawed.  Epoch-free entries (explicit windows, valid
   forever because archived windows are immutable) live in a cache the
   service owns; generation-scoped entries live in the *snapshot's own
   segment* and vanish wholesale when the snapshot retires.  There is
   no epoch re-check anywhere: an answer computed under a pin is
   correct for that pin by construction.

Concurrency: one re-entrant lock guards the shared cache and metrics;
the pinned snapshot guards its segment with its own lock (global order:
``IncrementalTara._lock`` → ``TaraService._lock`` → ``Snapshot._lock``;
no path here holds two of them at once).  Cache misses compute *outside*
every lock, so a slow first query does not serialize the service;
concurrent misses on the same key each compute and the last write wins
(benign — region equivalence guarantees they computed equal answers).
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
    overload,
)

from repro.common.errors import ValidationError
from repro.common.timing import stopwatch
from repro.core.builder import TaraKnowledgeBase
from repro.core.cache import CacheEntry, RegionKeyedCache
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
from repro.service.keys import EPOCH_FREE, CacheKey, CanonicalQuery, canonicalize
from repro.service.metrics import ServiceMetrics

#: Sources a service can wrap.
ServiceSource = Union[TaraKnowledgeBase, TaraExplorer, IncrementalTara]


class TaraService:
    """Thread-safe, cached query serving over one TARA knowledge base.

    Wraps a :class:`TaraKnowledgeBase`, an existing
    :class:`TaraExplorer` (both served as a single static snapshot), or
    an :class:`IncrementalTara` publisher (in which case every request
    pins whatever snapshot is current; publishes never disturb requests
    already in flight).
    """

    def __init__(
        self,
        source: ServiceSource,
        *,
        max_entries: int = 1024,
    ) -> None:
        self._lock = threading.RLock()
        self._shared = RegionKeyedCache(max_entries=max_entries)  # repro-lint: guarded-by=_lock
        self.metrics = ServiceMetrics()
        self._retired_seen = 0  # repro-lint: guarded-by=_lock
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
                segment_capacity=max_entries,
                explorer=source,
            )
            static.pin()
            self._static = static
        elif isinstance(source, TaraKnowledgeBase):
            static = Snapshot(
                source.window_count, source, segment_capacity=max_entries
            )
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

    def cache_info(self) -> Dict[str, int]:
        """Occupancy and lifetime evictions across both cache tiers.

        ``entries`` counts the shared (epoch-free) cache plus the
        current snapshot's segment; segments of retired snapshots are
        gone and accounted as invalidations in :attr:`metrics`.
        """
        self._sync_retirements()
        with self.pin() as snapshot:
            segment_entries, segment_evictions = snapshot.segment_info()
            epoch = snapshot.epoch
        with self._lock:
            return {
                "entries": len(self._shared) + segment_entries,
                "max_entries": self._shared.max_entries,
                "evictions": self._shared.evictions + segment_evictions,
                "epoch": epoch,
            }

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

    def _sync_retirements(self) -> None:
        """Fold snapshot retirements into the invalidation metric.

        Retirement happens on whatever thread drops the last pin; the
        publisher counts dropped segment entries and we pull the delta
        here (on the serving path) rather than re-entering the service
        from the retirement callback.
        """
        publisher = self._publisher
        if publisher is None:
            return
        total = publisher.retired_entries()
        with self._lock:
            delta = total - self._retired_seen
            if delta > 0:
                self._retired_seen = total
                self.metrics.record_invalidations(delta)

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
        """Serve one request against a freshly pinned snapshot.

        Cache hits thaw the stored answer; misses execute the resolved
        request on the pinned snapshot's explorer (outside every lock),
        freeze and store the answer, and return it.  Roll-up requests
        pass through uncached (their answers are not region-invariant).
        """
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
        hands its canonical form on, so a served miss is canonicalized
        once.  The caller owns the pin and must hold it until the
        answer is returned.
        """
        with stopwatch() as clock:
            hit = False
            frozen: object = None
            if canonical.key is not None:
                entry = self._cache_get(canonical.key, canonical, snapshot)
                if entry is not None:
                    hit = True
                    frozen = entry.value
            if not hit:
                answer = snapshot.explorer().execute(canonical.resolved)
                frozen = self._freeze(canonical, answer)
                if canonical.key is not None:
                    evicted = self._cache_put(
                        canonical.key, canonical, snapshot, frozen
                    )
                    with self._lock:
                        self.metrics.record_evictions(evicted)
            result = self._thaw(canonical, query, frozen)
        self._sync_retirements()
        with self._lock:
            self.metrics.observe(canonical.query_class, hit, clock.seconds)
        return result

    def uncached(self, query: ExplorerQuery) -> ExplorerAnswer:
        """Execute *query* on a pinned snapshot, bypassing both caches.

        The tests and the benchmark's body verification use this to
        check that cached and served answers equal freshly computed ones.
        """
        with self.pin() as snapshot:
            canonical = canonicalize(
                query, snapshot.knowledge_base, snapshot.epoch
            )
            return snapshot.explorer().execute(canonical.resolved)

    # ------------------------------------------------------------------
    # the two cache tiers
    # ------------------------------------------------------------------
    def _cache_get(
        self, key: CacheKey, canonical: CanonicalQuery, snapshot: Snapshot
    ) -> Optional[CacheEntry]:
        """Look *key* up in the tier the canonical query belongs to."""
        if canonical.scoped:
            return snapshot.cached(key)
        with self._lock:
            return self._shared.get(key)

    def _cache_put(
        self,
        key: CacheKey,
        canonical: CanonicalQuery,
        snapshot: Snapshot,
        frozen: object,
    ) -> int:
        """Store into the right tier; returns how many entries evicted.

        Scoped answers go into the pinned snapshot's segment — always
        correct, because the value was computed against exactly that
        view; when the snapshot retires, the whole segment goes with
        it.  Epoch-free answers go into the service-owned shared cache
        and outlive every snapshot.
        """
        if canonical.scoped:
            return snapshot.store(key, frozen)
        with self._lock:
            return self._shared.put(key, frozen, EPOCH_FREE)

    # ------------------------------------------------------------------
    # freeze / thaw
    # ------------------------------------------------------------------
    # repro-lint: publish
    def _freeze(self, canonical: CanonicalQuery, answer: object) -> object:
        """Convert *answer* to the immutable form stored in the cache."""
        if canonical.query_class == "Q1":
            trajectories = cast(List[RuleTrajectory], answer)
            return tuple(trajectories)
        if canonical.query_class == "Q5":
            per_window = cast(Dict[int, List[RuleId]], answer)
            return tuple(
                (window, tuple(ids)) for window, ids in per_window.items()
            )
        # Q2/Q3 answers are frozen dataclasses already.
        return answer

    def _thaw(
        self, canonical: CanonicalQuery, query: ExplorerQuery, frozen: object
    ) -> ExplorerAnswer:
        """Rebuild a caller-owned answer from the frozen cached form.

        Outer containers come back fresh (appending to or popping from
        a served answer cannot corrupt the cache); the frozen value
        objects inside (trajectories, diffs, regions) are shared with
        the cache and must be treated as read-only.  Q2/Q3 answers are
        re-echoed with the *caller's* settings — a region-equivalent
        entry may have been populated by a request with different raw
        floats.
        """
        if canonical.query_class == "Q1":
            stored = cast(Tuple[RuleTrajectory, ...], frozen)
            return list(stored)
        if canonical.query_class == "Q2":
            comparison = cast(ComparisonResult, frozen)
            compare_query = cast(CompareQuery, query)
            return replace(
                comparison,
                first=compare_query.first,
                second=compare_query.second,
            )
        if canonical.query_class == "Q3":
            recommendation = cast(Recommendation, frozen)
            recommend_query = cast(RecommendQuery, query)
            return replace(
                recommendation,
                setting=recommend_query.setting,
                neighbors=dict(recommendation.neighbors),
            )
        if canonical.query_class == "Q5":
            pairs = cast(Tuple[Tuple[int, Tuple[RuleId, ...]], ...], frozen)
            return {window: list(ids) for window, ids in pairs}
        return cast(RollupAnswer, frozen)
