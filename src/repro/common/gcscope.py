"""Cyclic-GC scopes: bulk-allocation pauses and the serving-heap policy.

The offline build materializes hundreds of thousands of objects that
are all *retained* (split plans, interned rules, scored tuples, index
rows).  CPython's generational collector triggers a young-generation
scan every ~700 net allocations, and during a bulk build every one of
those scans is pure overhead: nothing allocated by the build is garbage
until the build finishes.  On the retail quick workload these scans
account for roughly a quarter of the rule-derivation wall time.

:func:`paused_gc` disables the cyclic collector for the duration of a
bulk phase and restores the previous state afterwards.  Reference
counting (the primary deallocation mechanism) is unaffected — only the
cycle detector is paused, so the peak-memory impact is bounded by the
cyclic garbage produced inside the scope, which for the build loops is
none.

**The serving heap.**  Pausing the build is not enough for a server:
every later full pass still scans the knowledge base the build left
behind, and each publish grows it.  The serving gateway
(:class:`repro.serve.gateway.QueryGateway`) therefore owns one
process-level policy built on :func:`gc.freeze`, which moves every
tracked object into a permanent generation that collections skip:

* building the gateway freezes the heap as it stands — the loaded
  knowledge base and whatever else the host holds — without a
  collection, so set-up stays O(1);
* each served publish runs inside :func:`paused_then_frozen`: no pass
  while it clones, mines and swaps, then one :func:`gc.collect` over
  the objects not yet frozen (the publish's own allocations and the
  reads since the last freeze), and the survivors are frozen too;
* closing the gateway calls :func:`gc.unfreeze`, so cyclic garbage
  that formed among frozen objects can be reclaimed once the server
  stops.

A frozen object is never cycle-collected, so everything the serving
path retires must be freed by reference counting alone: a superseded
snapshot, its knowledge base and a dropped publisher hold no reference
cycles (see :mod:`repro.core.incremental`).  The library layers never
freeze a host's heap; only the gateway does.

**The paused phases.**  Each phase below only allocates objects it
retains or acyclic temporaries that reference counting frees, so a
collector pass inside it finds nothing to reclaim:

* the offline build, window by window (:class:`repro.core.builder.TaraBuilder`);
* saving a knowledge base in either format and loading a v1 file
  (:mod:`repro.core.persistence`);
* the first touch of a lazily loaded window, which materializes its EPS
  slice (:meth:`repro.core.lazykb.LazyTaraKnowledgeBase.slice`);
* each served publish (:func:`paused_then_frozen`).

Leaving a scope costs nothing: the one young pass the collector then
owes, over what the scope kept, runs at the next allocation after it.

**Across threads.**  The pause is process-global, like the collector
itself, and the phases above run on different threads: a publish on the
publisher thread, a first touch on the event loop or a worker.  The
scopes therefore share one count of active scopes, kept under a lock.
The first scope to enter records whether the collector was enabled and
disables it; the last one to exit restores that state.  Scopes may nest
and interleave in any order, and none of them re-enables the collector
while another is still inside.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from types import TracebackType
from typing import Dict, Iterator, Optional, Type

# The count of active paused_gc scopes in the process, and whether the
# collector was enabled when the first of them entered.  Reentrant, so
# a scope entered by a finalizer on the same thread cannot deadlock.
_pause_lock = threading.RLock()
_active_pauses = 0
_enabled_before_pause = False


class _PausedCollector:
    """The ``with`` target of :func:`paused_gc`; all state is module-level.

    A plain class rather than a generator: leaving the scope allocates
    nothing once the collector is back on, so the young pass it owes
    for what the scope kept runs at the caller's next allocation, not
    inside the scope's own exit.
    """

    def __enter__(self) -> None:
        global _active_pauses, _enabled_before_pause
        with _pause_lock:
            if _active_pauses == 0:
                _enabled_before_pause = gc.isenabled()
                gc.disable()
            _active_pauses += 1

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        global _active_pauses
        with _pause_lock:
            _active_pauses -= 1
            if _active_pauses == 0 and _enabled_before_pause:
                gc.enable()


_PAUSED = _PausedCollector()


def paused_gc() -> _PausedCollector:
    """Disable cyclic garbage collection inside the ``with`` block.

    The first active scope in the process records the collector's
    enabled/disabled state and disables it; the last scope to exit
    (also on error) restores that state, whatever thread each runs on
    (see the module docstring).
    """
    return _PAUSED


@contextmanager
def paused_then_frozen() -> Iterator[None]:
    """Pause the collector for the block, then collect once and freeze.

    The collection covers only objects not yet frozen, and runs before
    the collector is re-enabled, so the block costs one pass over its
    own allocations.  If the block raises, nothing is collected or
    frozen: its garbage stays young and the collector reclaims it as
    usual.
    """
    with paused_gc():
        yield
        gc.collect()
        gc.freeze()


def collector_stats() -> Dict[str, object]:
    """The collector's lifetime counters for ``GET /metrics``.

    One entry per generation (``gen0``–``gen2``) with its
    ``collections``, ``collected`` and ``uncollectable`` counts from
    :func:`gc.get_stats`, plus ``frozen``: the objects in the permanent
    generation (:func:`gc.get_freeze_count`).
    """
    stats: Dict[str, object] = {
        f"gen{generation}": {
            "collections": counts["collections"],
            "collected": counts["collected"],
            "uncollectable": counts["uncollectable"],
        }
        for generation, counts in enumerate(gc.get_stats())
    }
    stats["frozen"] = gc.get_freeze_count()
    return stats
