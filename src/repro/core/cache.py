"""Bounded LRU cache over canonical region keys.

The cache is deliberately small and boring: an :class:`~collections.OrderedDict`
in least-recently-used order, a hard entry bound, and an eviction
counter.  Two instances exist per serving stack: the service-owned
*shared* cache (epoch-free entries — explicit-window answers, valid
forever because archived windows are immutable) and one *segment* per
:class:`repro.core.Snapshot` (generation-scoped entries, cleared in one
shot when the snapshot retires).  The pre-PR-8 per-entry purge protocol
(``purge_scoped_except``) is gone: invalidation is now snapshot
retirement, never a scan.

The container lives in :mod:`repro.core` because the snapshot segment
does; the serving tier imports it from here.

The cache itself is **not** synchronized; its owner
(:class:`repro.service.service.TaraService` or the snapshot) holds a
lock around every call.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.errors import ValidationError

#: A canonical region key — the integer tuple produced by
#: :func:`repro.service.keys.canonicalize` (re-declared here so the
#: container does not depend on the key-construction layer above it).
CacheKey = Tuple[int, ...]


@dataclass(frozen=True)
class CacheEntry:
    """One memoized answer: the frozen value plus its epoch scope.

    ``epoch`` is :data:`repro.service.keys.EPOCH_FREE` for entries that
    can never go stale, or the serving epoch the entry is scoped to.
    """

    value: object
    epoch: int


class RegionKeyedCache:
    """A bounded, LRU-evicting map from canonical keys to answers."""

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ValidationError(
                f"cache max_entries must be positive, got {max_entries}"
            )
        self.max_entries = max_entries
        self.evictions = 0
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        """The entry at *key* (refreshing its recency), or ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: CacheKey, value: object, epoch: int) -> int:
        """Insert (or refresh) *key*; returns how many entries were evicted."""
        self._entries[key] = CacheEntry(value=value, epoch=epoch)
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped.

        This is the segment-retirement primitive: when a snapshot's
        last reader drains, its whole segment is cleared in one shot.
        """
        dropped = len(self._entries)
        self._entries.clear()
        return dropped
