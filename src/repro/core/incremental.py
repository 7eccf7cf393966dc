"""Incremental knowledge-base maintenance as a snapshot publisher.

The companion iPARAS work (Qin et al., BigMine'14) — cited by the paper
as TARA's speedup for fast-arriving data — constructs the parameter
space *incrementally*: when a new batch arrives, only the new window is
mined and indexed; all previously built per-window structures (archive
series, EPS slices) are reused untouched, because the EPS is sliced by
time and the archive is append-only.

PR 8 turns that append operation into MVCC publication.
:class:`IncrementalTara` no longer mutates a knowledge base readers are
concurrently querying; instead it owns a *current*
:class:`~repro.core.snapshot.Snapshot` and builds each new window
against a private copy-on-write successor:

1. :meth:`publish` admits one writer at a time (a second concurrent
   call raises :class:`~repro.common.errors.BuildInFlightError`, which
   the serving tier maps to HTTP 409);
2. the predecessor's knowledge base is cloned and the new batches are
   mined into the clone via :meth:`TaraBuilder.add_windows` (vertical
   kernel, under :func:`~repro.common.gcscope.paused_gc`).  The clone
   is O(windows), so a publish is O(new window): the successor shares
   every earlier window's archive column and EPS slice by reference,
   and the catalog's append-only rule list and key table behind its own
   id bound (:meth:`TarArchive.clone`, :meth:`RuleCatalog.clone`).  A
   publish that raises calls :meth:`RuleCatalog.rollback` on the
   predecessor's catalog, so the rules the discarded successor interned
   leave the shared table and the next publish reuses their ids;
3. a new snapshot wraps the successor and is *atomically swapped in*
   under the publisher lock; readers that pinned the predecessor keep
   answering against it, and it retires — cache segment and explorer
   freed — when its last reader drains.

Readers obtain a pinned view with :meth:`snapshot`, which returns a
context-managed :class:`~repro.core.snapshot.SnapshotHandle`.

Reference counting alone frees what a publish supersedes.  Snapshots
report retirement into a :class:`RetirementLedger` rather than into
the publisher, so neither a retired snapshot nor a dropped publisher
sits in a reference cycle: its knowledge base goes when its last pin
(or the last reference to the publisher) does, even on a heap whose
survivors the serving tier has frozen (:mod:`repro.common.gcscope`).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.common.errors import BuildInFlightError, ValidationError
from repro.core.archive import TarArchive
from repro.core.builder import GenerationConfig, TaraBuilder, TaraKnowledgeBase
from repro.core.explorer import TaraExplorer
from repro.core.snapshot import DEFAULT_SEGMENT_CAPACITY, Snapshot, SnapshotHandle
from repro.data.transactions import Transaction
from repro.mining.rules import RuleCatalog

# The global lock acquisition order, for any path that must nest:
# repro-lint: lock-order=IncrementalTara._lock,TaraService._lock,Snapshot._lock


class RetirementLedger:
    """Retirement counters the publisher's snapshots report into.

    Each snapshot's ``on_retire`` callback is :meth:`record` on this
    ledger, which holds no reference back to the publisher; a bound
    method of the publisher there would close the cycle publisher →
    current snapshot → callback → publisher.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshots = 0  # repro-lint: guarded-by=_lock
        self._entries = 0  # repro-lint: guarded-by=_lock

    def record(self, dropped_entries: int) -> None:
        """Count one retired snapshot and its dropped segment entries."""
        # Fired by Snapshot.release *after* it dropped Snapshot._lock,
        # and this lock is a leaf: no path takes another lock under it.
        with self._lock:
            self._snapshots += 1
            self._entries += dropped_entries

    def totals(self) -> Tuple[int, int]:
        """``(retired snapshots, dropped segment entries)`` so far."""
        with self._lock:
            return self._snapshots, self._entries


class IncrementalTara:
    """A TARA snapshot publisher that grows the database window-wise."""

    def __init__(
        self,
        config: GenerationConfig,
        *,
        segment_capacity: int = DEFAULT_SEGMENT_CAPACITY,
    ) -> None:
        self.config = config
        self._builder = TaraBuilder(config)
        self._segment_capacity = segment_capacity
        self._lock = threading.Lock()
        self._building = False  # repro-lint: guarded-by=_lock
        self._retirements = RetirementLedger()
        initial = Snapshot(
            0,
            TaraKnowledgeBase(
                config=config,
                catalog=RuleCatalog(),
                archive=TarArchive(),
            ),
            segment_capacity=segment_capacity,
            on_retire=self._retirements.record,
        )
        # The publisher holds one standing pin on the current snapshot,
        # so "current" can never retire out from under a new reader.
        initial.pin()
        self._current = initial  # repro-lint: guarded-by=_lock

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> SnapshotHandle:
        """Pin the current snapshot and return a context-managed handle.

        Pinning happens under the publisher lock, so the returned view
        cannot retire between the read of ``current`` and the pin.
        """
        with self._lock:
            pinned = self._current.pin()
        return SnapshotHandle(pinned)

    @property
    def current(self) -> Snapshot:
        """The currently published snapshot (unpinned; prefer
        :meth:`snapshot` for anything longer than a single read)."""
        with self._lock:
            return self._current

    @property
    def knowledge_base(self) -> TaraKnowledgeBase:
        """The current snapshot's knowledge base."""
        with self._lock:
            return self._current.knowledge_base

    @property
    def window_count(self) -> int:
        """Windows incorporated so far (in the current snapshot)."""
        with self._lock:
            return self._current.window_count

    def explorer(self) -> TaraExplorer:
        """A query processor over the current snapshot.

        Convenience for single-threaded callers; concurrent readers
        should hold a :meth:`snapshot` handle so the view they query
        cannot retire mid-flight.
        """
        with self._lock:
            current = self._current
        return current.explorer()

    def snapshot_stats(self) -> Dict[str, object]:
        """Publisher introspection for ``GET /v1/snapshot``."""
        with self._lock:
            current = self._current
            building = self._building
        retired_snapshots, retired_entries = self._retirements.totals()
        return {
            "epoch": current.epoch,
            "windows": current.window_count,
            "refs": current.refs,
            "building": building,
            "retired_snapshots": retired_snapshots,
            "retired_entries": retired_entries,
        }

    def retired_entries(self) -> int:
        """Cache-segment entries dropped by snapshot retirement so far.

        :class:`repro.service.TaraService` polls this to account
        retirements as invalidations in its metrics.
        """
        return self._retirements.totals()[1]

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish(self, batches: Iterable[Sequence[Transaction]]) -> Snapshot:
        """Mine *batches* into a successor snapshot and install it.

        One writer at a time: a concurrent call observes the in-flight
        build and raises :class:`BuildInFlightError` immediately rather
        than queueing (the serving tier surfaces this as HTTP 409 so the
        ingest client can retry after the current build lands).

        Readers are never blocked: they keep executing against the
        predecessor until the atomic swap, and pinned handles remain
        valid until released.  Returns the newly installed snapshot.
        """
        with self._lock:
            if self._building:
                raise BuildInFlightError(
                    "a snapshot build is already in flight; retry after it lands"
                )
            self._building = True
            predecessor = self._current
        try:
            validated = self._validate_batches(
                batches, window_count=predecessor.window_count
            )
            if not validated:
                raise ValidationError("publish requires at least one batch")
            successor_kb = predecessor.knowledge_base.clone()
            self._builder.add_windows(successor_kb, validated)
            successor = Snapshot(
                successor_kb.window_count,
                successor_kb,
                segment_capacity=self._segment_capacity,
                on_retire=self._retirements.record,
            )
            # Standing pin first, then swap: between these two lines the
            # successor is simply not yet visible to anyone.
            successor.pin()
            with self._lock:
                self._current = successor
        except BaseException:
            # The successor is discarded; take back what it interned
            # into the catalog it shares with the predecessor.
            predecessor.knowledge_base.catalog.rollback()
            raise
        finally:
            with self._lock:
                self._building = False
        # Drop the publisher's standing pin on the predecessor outside
        # every lock: if no reader still holds it, retirement (and its
        # callback into our own lock) runs right here.
        predecessor.release()
        return successor

    def _validate_batches(
        self,
        batches: Iterable[Sequence[Transaction]],
        *,
        window_count: int,
    ) -> List[List[Transaction]]:
        validated: List[List[Transaction]] = []
        for index, transactions in enumerate(batches):
            batch = list(transactions)
            if not batch:
                raise ValidationError("cannot append an empty batch")
            self._check_order(
                batch,
                is_first_window=(window_count == 0 and index == 0),
            )
            validated.append(batch)
        return validated

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _check_order(
        self, batch: Sequence[Transaction], *, is_first_window: bool
    ) -> None:
        if is_first_window:
            return
        # Batches carry their own timestamps; we only require that the
        # batch is internally sorted (the windowed model does not demand
        # global monotonicity for count-partitioned sources, but an
        # unsorted batch indicates caller confusion).
        times = [t.time for t in batch]
        if times != sorted(times):
            raise ValidationError("batch transactions must be time-sorted")
