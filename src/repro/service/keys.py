"""Canonical integer region keys — the cache identity of online queries.

The paper's equivalence (Definition 11) says every parameter setting
inside one time-aware stable region yields the *same* ruleset.  The
serving layer exploits that by canonicalizing each request to a tuple
of plain integers, which keys the serving tier's byte cache
(:mod:`repro.serve.respcache`) and request coalescer
(:mod:`repro.serve.coalesce`):

* each ``(window, setting)`` pair becomes the window's **stable-region
  id** (:meth:`repro.core.regions.WindowSlice.region_id`) — two settings
  in the same region therefore share one key, and raw float
  thresholds never participate in key equality (rule R001's spirit);
* generation-scoped defaults (``spec=None`` = "all windows",
  ``window=None`` = "the latest window") are resolved to explicit
  window indexes **and** tagged with the serving epoch, so a window
  append retires exactly those keys while explicit per-window
  keys — still valid, because archived windows are immutable — keep
  serving.

Key layouts (every element an ``int``; the class code comes first and
each variable-length section is preceded by its length, so distinct
queries can never produce the same tuple):

=====  ================================================================
Q1     ``(1, tag, anchor, region_id, n, *windows)``
Q2     ``(2, tag, mode, n, *windows, *first_ids, *second_ids)``
Q3     ``(3, tag, window, region_id)``
Q5     ``(5, tag, n, *windows, *region_ids, m, *items)``
=====  ================================================================

``tag`` is :data:`EPOCH_FREE` for fully-explicit queries and the pinned
snapshot's epoch for generation-scoped ones; the byte cache purges a
scoped key's bytes once a request pins a later epoch.  Roll-up requests
canonicalize with ``key=None``: their answers threshold *merged*
counts, so stable regions do not imply equal answers and the serving
tier neither caches nor coalesces them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.common.errors import QueryError
from repro.core.builder import TaraKnowledgeBase
from repro.core.queries import (
    CompareQuery,
    ContentQuery,
    ExplorerQuery,
    MatchMode,
    RecommendQuery,
    RollupQuery,
    TrajectoryQuery,
)
from repro.core.regions import ParameterSetting
from repro.data.periods import PeriodSpec

#: Epoch tag of keys that never go stale (explicit windows only).
EPOCH_FREE = -1

#: A fully-integer region key (see the module docstring for layouts).
CacheKey = Tuple[int, ...]

_MODE_CODES = {MatchMode.SINGLE: 0, MatchMode.EXACT: 1}


@dataclass(frozen=True)
class CanonicalQuery:
    """One request canonicalized for serving.

    Attributes:
        query_class: metrics label — ``"Q1"``/``"Q2"``/``"Q3"``/``"Q5"``
            for the cacheable classes, ``"rollup"`` for pass-through.
        resolved: the request with every generation-scoped default
            replaced by explicit window indexes; executing it yields the
            exact answer the key identifies.
        key: the integer region key, or ``None`` when the request is
            not region-cacheable (roll-up).
        epoch: :data:`EPOCH_FREE`, or the epoch the key is scoped to.
    """

    query_class: str
    resolved: ExplorerQuery
    key: Optional[CacheKey]
    epoch: int


def _resolve_spec(
    spec: Optional[PeriodSpec], knowledge_base: TaraKnowledgeBase
) -> Tuple[PeriodSpec, bool]:
    """Resolve a maybe-default spec; returns (explicit spec, was_default)."""
    if spec is None:
        return knowledge_base.all_windows(), True
    return spec.restrict_to(knowledge_base.window_count), False


def _region_ids(
    knowledge_base: TaraKnowledgeBase,
    setting: ParameterSetting,
    windows: Tuple[int, ...],
) -> List[int]:
    """Stable-region id of *setting* in each of *windows* (two bisects each)."""
    return [
        knowledge_base.slice(window).region_id(setting) for window in windows
    ]


def canonicalize(
    query: ExplorerQuery,
    knowledge_base: TaraKnowledgeBase,
    epoch: int,
) -> CanonicalQuery:
    """Canonicalize *query* against *knowledge_base* at serving *epoch*.

    Raises the same domain errors the explorer would (unknown window,
    setting below generation thresholds), so invalid requests fail
    before any cache is consulted.
    """
    if isinstance(query, TrajectoryQuery):
        spec, scoped = _resolve_spec(query.spec, knowledge_base)
        region = knowledge_base.slice(query.anchor_window).region_id(
            query.setting
        )
        tag = epoch if scoped else EPOCH_FREE
        key = (
            1,
            tag,
            query.anchor_window,
            region,
            len(spec),
            *spec.windows,
        )
        return CanonicalQuery(
            query_class="Q1",
            resolved=replace(query, spec=spec),
            key=key,
            epoch=tag,
        )

    if isinstance(query, CompareQuery):
        spec, scoped = _resolve_spec(query.spec, knowledge_base)
        first_ids = _region_ids(knowledge_base, query.first, spec.windows)
        second_ids = _region_ids(knowledge_base, query.second, spec.windows)
        tag = epoch if scoped else EPOCH_FREE
        key = (
            2,
            tag,
            _MODE_CODES[query.mode],
            len(spec),
            *spec.windows,
            *first_ids,
            *second_ids,
        )
        return CanonicalQuery(
            query_class="Q2",
            resolved=replace(query, spec=spec),
            key=key,
            epoch=tag,
        )

    if isinstance(query, RecommendQuery):
        scoped = query.window is None
        window = (
            knowledge_base.window_count - 1
            if query.window is None
            else query.window
        )
        region = knowledge_base.slice(window).region_id(query.setting)
        tag = epoch if scoped else EPOCH_FREE
        return CanonicalQuery(
            query_class="Q3",
            resolved=replace(query, window=window),
            key=(3, tag, window, region),
            epoch=tag,
        )

    if isinstance(query, ContentQuery):
        spec, scoped = _resolve_spec(query.spec, knowledge_base)
        region_ids = _region_ids(knowledge_base, query.setting, spec.windows)
        tag = epoch if scoped else EPOCH_FREE
        key = (
            5,
            tag,
            len(spec),
            *spec.windows,
            *region_ids,
            len(query.items),
            *query.items,
        )
        return CanonicalQuery(
            query_class="Q5",
            resolved=replace(query, spec=spec),
            key=key,
            epoch=tag,
        )

    if isinstance(query, RollupQuery):
        # Roll-up answers threshold merged counts: stable regions do not
        # imply equal answers, so the request is never cached.
        return CanonicalQuery(
            query_class="rollup",
            resolved=query,
            key=None,
            epoch=EPOCH_FREE,
        )

    raise QueryError(f"unknown explorer query type {type(query).__name__!r}")


def echo_tag(query: ExplorerQuery) -> Tuple[float, ...]:
    """The raw caller floats an answer *echoes back* verbatim.

    Region keys deliberately erase raw thresholds (two settings in one
    stable region share a key), but Q2/Q3 answers echo the caller's
    exact floats (the resolved request keeps them), so two
    region-equivalent requests with different raw settings produce
    answers that differ *in those echoed fields only*.  A cache of
    encoded response bytes must therefore key on the echo too, or one
    caller's floats would be served to another.  Q1/Q5 answers echo
    nothing and return the empty tag.
    """
    if isinstance(query, CompareQuery):
        return (
            query.first.min_support,
            query.first.min_confidence,
            query.second.min_support,
            query.second.min_confidence,
        )
    if isinstance(query, RecommendQuery):
        return (query.setting.min_support, query.setting.min_confidence)
    return ()
