"""MVCC snapshots: immutable published views of the evolving TAR database.

PR 7's serving tier was honest only between appends: readers and the
incremental builder shared one mutable :class:`TaraKnowledgeBase`, with
an integer epoch and cache purges as the only isolation.  This module
promotes the epoch to a real copy-on-write snapshot object:

* a :class:`Snapshot` is a *frozen* view — knowledge base and lazily
  built explorer — published by :class:`repro.core.IncrementalTara`
  and never mutated afterwards;
* readers *pin* a snapshot through a reference-counted
  :class:`SnapshotHandle` (a context manager); every query executes
  against the pinned view, so a concurrent publish can never change an
  answer mid-flight;
* when the publisher swaps in a successor it drops its own standing
  reference, and the superseded snapshot is **retired** — its explorer
  released — exactly once, when the last reader drains.

Epoch arithmetic disappears from the serving layers: a snapshot's
``epoch`` (its window count at publication) is an identity readers carry
around, compared nowhere outside this module (enforced by analyzer rule
R008's snapshot-handle discipline).

Concurrency contract: all mutable state is guarded by the snapshot's
own lock; the retirement callback fires *outside* the lock so publisher
bookkeeping can take its own lock without nesting under ours (global
order: ``IncrementalTara._lock`` → ``TaraService._lock`` →
``Snapshot._lock``; see :mod:`repro.core.incremental`).
"""

from __future__ import annotations

import threading
from types import TracebackType
from typing import Callable, Optional, Type

from repro.common.errors import RetiredSnapshotError
from repro.core.builder import TaraKnowledgeBase
from repro.core.explorer import TaraExplorer


class Snapshot:
    """One published, immutable view of the knowledge base.

    Created by the publisher (or by :class:`repro.service.TaraService`
    for static sources) and handed to readers only through pinned
    handles.  ``epoch`` equals the window count at publication and is an
    opaque identity outside this class.
    """

    def __init__(
        self,
        epoch: int,
        knowledge_base: TaraKnowledgeBase,
        *,
        explorer: Optional[TaraExplorer] = None,
        on_retire: Optional[Callable[[], None]] = None,
    ) -> None:
        self.epoch = epoch
        self.knowledge_base = knowledge_base
        self._on_retire = on_retire
        self._lock = threading.Lock()
        self._refs = 0  # repro-lint: guarded-by=_lock
        self._retired = False  # repro-lint: guarded-by=_lock
        self._retire_count = 0  # repro-lint: guarded-by=_lock
        self._explorer = explorer  # repro-lint: guarded-by=_lock

    # ------------------------------------------------------------------
    # identity / introspection
    # ------------------------------------------------------------------
    @property
    def window_count(self) -> int:
        """Windows visible to readers of this snapshot."""
        return self.knowledge_base.window_count

    @property
    def refs(self) -> int:
        """Outstanding pins (the publisher's standing pin included)."""
        with self._lock:
            return self._refs

    @property
    def retired(self) -> bool:
        """True once the last reader drained and the explorer was freed."""
        with self._lock:
            return self._retired

    @property
    def retire_count(self) -> int:
        """How many times retirement ran — the invariant says at most 1."""
        with self._lock:
            return self._retire_count

    # ------------------------------------------------------------------
    # pin / release
    # ------------------------------------------------------------------
    def pin(self) -> "Snapshot":
        """Take one reference; the snapshot stays alive until released."""
        with self._lock:
            if self._retired:
                raise RetiredSnapshotError(
                    f"snapshot epoch {self.epoch} is retired; "
                    "pin the publisher's current snapshot instead"
                )
            self._refs += 1
        return self

    def release(self) -> None:
        """Drop one reference; the last drop retires the snapshot.

        Retirement frees the explorer exactly once; the ``on_retire``
        callback (publisher bookkeeping) fires after the lock is
        released so it may take other locks freely.
        """
        retired = False
        with self._lock:
            if self._refs <= 0:
                raise RetiredSnapshotError(
                    f"snapshot epoch {self.epoch}: release without a pin"
                )
            self._refs -= 1
            if self._refs == 0 and not self._retired:
                self._retired = retired = True
                self._retire_count += 1
                self._explorer = None
        if retired and self._on_retire is not None:
            self._on_retire()

    def handle(self) -> "SnapshotHandle":
        """Pin and wrap in a context-managed handle."""
        return SnapshotHandle(self.pin())

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def explorer(self) -> TaraExplorer:
        """The query processor over this snapshot's knowledge base.

        Built lazily (an epoch-0 snapshot holds no windows and raises
        the explorer's usual :class:`~repro.common.errors.QueryError`)
        and memoized for the snapshot's lifetime.
        """
        with self._lock:
            if self._retired:
                raise RetiredSnapshotError(
                    f"snapshot epoch {self.epoch} is retired"
                )
            explorer = self._explorer
            if explorer is None:
                explorer = TaraExplorer(self.knowledge_base)
                self._explorer = explorer
            return explorer


class SnapshotHandle:
    """A context-managed pin on one :class:`Snapshot`.

    Obtained from :meth:`repro.core.IncrementalTara.snapshot` (or
    :meth:`Snapshot.handle`); the snapshot arrives already pinned and
    :meth:`release` is idempotent, so the handle may be released
    explicitly, by ``with``-exit, or both.
    """

    def __init__(self, snapshot: Snapshot) -> None:
        self._snapshot = snapshot
        self._released = False

    @property
    def snapshot(self) -> Snapshot:
        """The pinned snapshot (valid until :meth:`release`)."""
        return self._snapshot

    def release(self) -> None:
        """Drop this handle's pin (idempotent)."""
        if self._released:
            return
        self._released = True
        self._snapshot.release()

    def __enter__(self) -> Snapshot:
        return self._snapshot

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        self.release()
