"""The encoded-response byte cache of the wire-hot serving path.

PR 7 measured the serving tier spending >99% of a warm Q1 request
re-running ``encode_answer`` + ``json.dumps`` over ~20k trajectory rows
an answer cache had already answered in microseconds.  PR 8's MVCC
snapshots make the fix sound: an answer is immutable per ``(canonical
region key, snapshot epoch)``, therefore its encoded bytes are too —
encode once, serve bytes until the snapshot retires.

:class:`ResponseCache` stores encoded **answer blobs** (the bytes after
``"answer":`` in the success envelope) plus fully-assembled **gzip
variants**, keyed by ``(region key, echo tag, encoding)``:

* the *region key* is the canonical integer key of
  :mod:`repro.service.keys` — scoped keys embed the snapshot epoch, so
  a publish can never serve stale bytes under a reused key;
* the *echo tag* (:func:`repro.service.keys.echo_tag`) carries the raw
  caller floats Q2/Q3 answers echo back — region-equivalent requests
  with different raw settings get distinct byte entries even though
  they share one region key;
* the *encoding* is ``"identity"`` (the bare answer blob, spliced
  between a per-request envelope prefix and the closing brace) or
  ``"gzip"`` (one complete pre-compressed response body).

Retirement follows PR 8's snapshot discipline, observed at the cache:
every query request pins the current snapshot before touching the
cache, and scoped keys embed their epoch, so when :meth:`observe_epoch`
is handed a pinned epoch, every generation-scoped bucket that is not
that epoch belongs to a retired snapshot, is unreachable forever, and
is purged eagerly — identity, never ordering (rule R008).  Epoch-free
entries — explicit immutable windows — survive publishes.  A gzip
variant is the exception: it holds a whole response, whose envelope
names the pinned epoch, so it is always stored under that epoch.
Byte accounting follows PR 9's storage LRU:
one byte budget, least-recently-served eviction, oversize rejection,
and peak tracking.

Admission is on the second ask, as CDNs keep one-hit objects out
(Maggs & Sitaraman, "Algorithmic Nuggets in Content Delivery", 2015)
and TinyLFU's doorkeeper does (Einziger, Friedman & Manes, 2017).  An
analyst steering thresholds lands in a new stable region at almost
every step, so most answers are asked for once.  The first miss of a
key records a bodiless *ghost* in the identity slot (:meth:`admit`
returns False); the ghost is charged :data:`ENTRY_OVERHEAD` against the
same budget and is evicted and purged like a body.  From the second
miss on, :meth:`admit` returns True and the caller stores the bytes.
The ``entries``, ``stores``, ``evictions`` and ``purged_entries``
counters count bodies only; ``current_bytes`` includes the ghosts'
charge, and ``first_sightings`` counts the ghosts recorded.

The cache is event-loop-confined (the gateway is its only caller), so
like :mod:`repro.serve.coalesce` and :mod:`repro.serve.metrics` it
needs no lock.  Stored bodies are ``bytes`` — immutable by
construction, which rule R007 now checks at the ``put`` sinks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.common.errors import ValidationError
from repro.service.keys import CacheKey, EPOCH_FREE

#: Wire encodings a response body can be cached under.
IDENTITY = "identity"
GZIP = "gzip"

#: Default byte budget for cached encoded responses.
DEFAULT_RESPONSE_CACHE_BYTES = 64 * 1024 * 1024

#: Bookkeeping charge per entry (key tuple, OrderedDict node, counters),
#: mirroring the storage LRU's practice of charging structure overhead.
ENTRY_OVERHEAD = 120

#: ``(region key, echo tag)`` — the identity of one cacheable response.
ResponseKey = Tuple[CacheKey, Tuple[float, ...]]

#: Internal storage key: the response key plus the wire encoding.
_EntryKey = Tuple[CacheKey, Tuple[float, ...], str]


@dataclass(frozen=True)
class CachedBody:
    """One cache hit: which encoding was found and its stored bytes.

    ``identity`` bodies are answer blobs (the caller supplies the
    envelope); ``gzip`` bodies are complete pre-compressed responses.
    """

    encoding: str
    body: bytes


class ResponseCache:
    """A byte-budgeted LRU of encoded response bodies, kept from the second ask."""

    def __init__(
        self, budget_bytes: int = DEFAULT_RESPONSE_CACHE_BYTES
    ) -> None:
        if budget_bytes < 1:
            raise ValidationError(
                f"budget_bytes must be >= 1, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        # Each value is (body, cost, epoch); a ghost's body is None.
        self._entries: (
            "OrderedDict[_EntryKey, Tuple[Optional[bytes], int, int]]"
        ) = OrderedDict()
        self._by_epoch: Dict[int, Set[_EntryKey]] = {}
        self._ghosts = 0
        self.current_bytes = 0
        self.peak_bytes = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.rejected = 0
        self.purged_entries = 0
        self.purged_epochs = 0
        self.gzip_variants = 0
        self.bytes_served = 0
        self.not_modified = 0
        self.first_sightings = 0

    def __len__(self) -> int:
        """Stored bodies (ghosts are not counted)."""
        return len(self._entries) - self._ghosts

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def lookup(
        self, key: ResponseKey, *, accept_gzip: bool
    ) -> Optional[CachedBody]:
        """One request-level probe: best available encoding, or ``None``.

        Prefers the pre-compressed variant for gzip-accepting clients
        and falls back to the identity blob (the gateway compresses and
        stores the variant on that first gzip-accepting hit).  Counts
        exactly one hit or one miss per call, so the published hit rate
        is per *request*, not per internal probe.
        """
        if accept_gzip:
            found = self._touch(key + (GZIP,))
            if found is not None:
                self.hits += 1
                return CachedBody(GZIP, found)
        found = self._touch(key + (IDENTITY,))
        if found is not None:
            self.hits += 1
            return CachedBody(IDENTITY, found)
        self.misses += 1
        return None

    def _touch(self, entry_key: _EntryKey) -> Optional[bytes]:
        entry = self._entries.get(entry_key)
        if entry is None or entry[0] is None:
            return None
        self._entries.move_to_end(entry_key)
        return entry[0]

    def record_served(self, count: int) -> None:
        """Account *count* body bytes served straight from the cache."""
        self.bytes_served += count

    def record_not_modified(self) -> None:
        """Account one conditional request answered with 304."""
        self.not_modified += 1

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def admit(self, key: ResponseKey, epoch: int) -> bool:
        """After a miss: may the caller store *key*'s bytes now?

        True when *key* was seen before, i.e. its ghost (or an identity
        body) is held.  Otherwise records a ghost under *epoch*, counts
        one first sighting and returns False.  A key whose ghost was
        evicted or purged starts over.
        """
        entry_key = key + (IDENTITY,)
        if entry_key in self._entries:
            return True
        self.first_sightings += 1
        self._insert(entry_key, None, ENTRY_OVERHEAD, epoch)
        return False

    def put(self, key: ResponseKey, value: bytes, epoch: int) -> bool:
        """Store the identity answer blob for *key*; False if over budget.

        *epoch* is :data:`~repro.service.keys.EPOCH_FREE` for entries
        that survive publishes, else the snapshot epoch the key is
        scoped to (purged when :meth:`observe_epoch` sees it retire).
        """
        return self._store(key + (IDENTITY,), value, epoch)

    def put_gzip(self, key: ResponseKey, value: bytes, epoch: int) -> None:
        """Store the pre-compressed complete response body for *key*.

        *epoch* is the pinned snapshot's, even for an epoch-free *key*:
        the body's envelope names it.
        """
        entry_key = key + (GZIP,)
        fresh = entry_key not in self._entries
        if self._store(entry_key, value, epoch) and fresh:
            self.gzip_variants += 1

    def _store(self, entry_key: _EntryKey, body: bytes, epoch: int) -> bool:
        """Insert one body, evicting oldest first; False if over budget."""
        if not self._insert(entry_key, body, len(body) + ENTRY_OVERHEAD, epoch):
            self.rejected += 1
            return False
        self.stores += 1
        return True

    def _insert(
        self, entry_key: _EntryKey, body: Optional[bytes], cost: int, epoch: int
    ) -> bool:
        """Place a body or a ghost (``None``) unless *cost* exceeds the budget."""
        if cost > self.budget_bytes:
            return False
        self._discard(entry_key)
        while self._entries and self.current_bytes + cost > self.budget_bytes:
            self._evict_oldest()
        self._entries[entry_key] = (body, cost, epoch)
        self.current_bytes += cost
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)
        if body is None:
            self._ghosts += 1
        if epoch != EPOCH_FREE:
            self._by_epoch.setdefault(epoch, set()).add(entry_key)
        return True

    def _evict_oldest(self) -> None:
        entry_key, entry = self._entries.popitem(last=False)
        if self._release(entry_key, entry):
            self.evictions += 1

    def _discard(self, entry_key: _EntryKey) -> bool:
        """Drop one entry if held; True if it was a body."""
        entry = self._entries.pop(entry_key, None)
        return entry is not None and self._release(entry_key, entry)

    def _release(
        self, entry_key: _EntryKey, entry: Tuple[Optional[bytes], int, int]
    ) -> bool:
        """Give back a removed entry's charge; True if it held a body."""
        body, cost, epoch = entry
        self.current_bytes -= cost
        self._unindex(entry_key, epoch)
        if body is None:
            self._ghosts -= 1
        return body is not None

    def _unindex(self, entry_key: _EntryKey, epoch: int) -> None:
        if epoch == EPOCH_FREE:
            return
        keys = self._by_epoch.get(epoch)
        if keys is not None:
            keys.discard(entry_key)
            if not keys:
                del self._by_epoch[epoch]

    # ------------------------------------------------------------------
    # snapshot retirement
    # ------------------------------------------------------------------
    def observe_epoch(self, epoch: int) -> None:
        """Purge scoped entries of every epoch except the pinned *epoch*.

        Epoch validity is identity, never age (rule R008): an entry's
        bucket either *is* the epoch some pinned snapshot just named,
        or its snapshot retired and the bytes are dead.  A scoped key
        embeds its epoch, and a gzip variant's envelope names the epoch
        it is stored under, so every other bucket holds bytes no
        request pinned to *epoch* may serve, and is dropped eagerly —
        the response-cache analogue of PR 8's snapshot retirement.  No
        ordering is assumed, so the purge stays correct under any
        epoch scheme.

        During the drain window right after a publish, requests pinned
        to the outgoing snapshot interleave with ones pinned to the new
        epoch, and each side purges the other's young scoped entries.
        That costs at most a re-encode per flip — never staleness, the
        keys embed their epoch — and the window closes when the old
        pins release.
        """
        live = self._by_epoch.pop(epoch, None)
        if self._by_epoch:
            for stale_keys in list(self._by_epoch.values()):
                for entry_key in list(stale_keys):
                    if self._discard(entry_key):
                        self.purged_entries += 1
                self.purged_epochs += 1
            self._by_epoch.clear()
        if live is not None:
            self._by_epoch[epoch] = live

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Snapshot for the ``/metrics`` route."""
        return {
            "entries": len(self),
            "budget_bytes": self.budget_bytes,
            "current_bytes": self.current_bytes,
            "peak_bytes": self.peak_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "purged_entries": self.purged_entries,
            "purged_epochs": self.purged_epochs,
            "gzip_variants": self.gzip_variants,
            "bytes_served": self.bytes_served,
            "not_modified": self.not_modified,
            "first_sightings": self.first_sightings,
        }
