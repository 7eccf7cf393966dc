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

The pause is process-global, like the collector itself; nested scopes
are safe (the inner scope sees the collector already disabled and
leaves it so).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Dict, Iterator


@contextmanager
def paused_gc() -> Iterator[None]:
    """Disable cyclic garbage collection inside the ``with`` block.

    Restores the collector's previous enabled/disabled state on exit
    (also on error), so nesting and already-disabled environments
    behave as expected.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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
