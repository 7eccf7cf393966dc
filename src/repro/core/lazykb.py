"""Lazy, memory-bounded knowledge base over a v2 container.

Loading a format-v2 file does **not** rebuild the knowledge base
eagerly.  Instead:

* :class:`ShardedArchive` — a :class:`~repro.core.archive.TarArchive`
  whose reads scatter-gather across the container's shards through a
  :class:`~repro.core.storage.reader.ShardedSeriesSource`: a rule
  lookup touches exactly one shard block (decoded series kept under the
  ``memory_budget`` LRU), never the whole file.  The archive is
  read-only: :meth:`ShardedArchive.clone` builds an appendable
  in-memory successor whose columns come straight from the container's
  window blocks; nothing mutates the mapped file.
* :class:`LazyTaraKnowledgeBase` — materializes each window's
  :class:`~repro.core.regions.WindowSlice` from the container's window
  block on first touch, by the constructor the v1 loader and the
  offline builder use (:meth:`~repro.core.regions.WindowSlice.from_rows`),
  so every query answer is byte-identical to the eager path
  (fingerprint-gated by ``repro bench-persist``).

The catalog and the two top-level directories are the only state built
at load time; resident size is O(rules) for the catalog plus the byte
budget, not O(rules x windows).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.common.errors import UnknownWindowError, ValidationError
from repro.common.gcscope import paused_gc
from repro.common.timing import PhaseTimer
from repro.core.archive import TarArchive
from repro.core.builder import GenerationConfig, TaraKnowledgeBase
from repro.core.regions import WindowSlice
from repro.core.storage.codec import Entry
from repro.core.storage.reader import ShardedSeriesSource
from repro.core.storage.writer import WindowEntry
from repro.data.periods import PeriodSpec
from repro.mining.rules import RuleCatalog, RuleId


class ShardedArchive(TarArchive):
    """A read-only ``TarArchive`` whose series live in a v2 container.

    Every read path of the base class funnels through ``_entries`` /
    ``_column_entry`` / ``window_entries`` / ``encoded_series`` /
    ``rule_ids``; overriding those five plus the membership pair
    redirects the whole measure/roll-up API at the mmap-backed source
    without duplicating any of its logic.
    """

    def __init__(
        self,
        source: ShardedSeriesSource,
        window_sizes: List[int],
        missing_count_bounds: List[int],
    ) -> None:
        super().__init__()
        self._source = source
        self._window_sizes = list(window_sizes)
        self._missing_count_bounds = list(missing_count_bounds)

    @property
    def source(self) -> ShardedSeriesSource:
        """The underlying container reader (for counters and ``close``)."""
        return self._source

    # ------------------------------------------------------------------
    # reads: scatter-gather through the SeriesSource
    # ------------------------------------------------------------------
    def _entries(self, rule_id: RuleId) -> List[Entry]:
        return self._source.series_entries(rule_id)

    def _column_entry(self, rule_id: RuleId, window: int) -> Optional[Entry]:
        """The rule's entry in *window*, found in its (cached) series."""
        for entry in self._entries(rule_id):
            if entry[0] >= window:
                return entry if entry[0] == window else None
        return None

    def window_entries(self, window: int) -> List[WindowEntry]:
        """One window's rows, decoded from its window block."""
        return self._source.window_entries(window)

    def encoded_series(self, rule_id: RuleId) -> bytes:
        """One rule's canonical byte encoding, sliced out of the map."""
        return self._source.encoded_series(rule_id)

    def rule_ids(self) -> Iterator[RuleId]:
        """All archived rule ids, ascending across shards."""
        return self._source.rule_ids()

    def __contains__(self, rule_id: RuleId) -> bool:
        return rule_id in self._source

    def __len__(self) -> int:
        return len(self._source)

    def entry_count(self) -> int:
        """Total archived (rule, window) entries, from the meta counts.

        Falls back to decoding the window blocks only when the container
        predates the count hints (never for files this writer produced).
        """
        hint = self._source.meta.get("counts", {}).get("entries")
        if isinstance(hint, int):
            return hint
        return sum(
            len(self.window_entries(w)) for w in range(self.window_count)
        )

    def encoded_size_bytes(self) -> int:
        """Bytes of the encoded series (the Figure 12 number), from meta."""
        hint = self._source.meta.get("counts", {}).get("encoded_bytes")
        if isinstance(hint, int):
            return hint
        return super().encoded_size_bytes()

    # ------------------------------------------------------------------
    # writes: refused (the container is immutable); clone materializes
    # ------------------------------------------------------------------
    def begin_window(self, window_size: int, missing_count_bound: int) -> int:
        """Refused: the mapped container cannot grow in place."""
        raise ValidationError(
            "a sharded archive is read-only; clone() it to append windows"
        )

    def record(self, window: int, scored_rules: object) -> int:
        """Refused: the mapped container cannot grow in place."""
        raise ValidationError(
            "a sharded archive is read-only; clone() it to append windows"
        )

    def clone(self) -> TarArchive:
        """An appendable in-memory successor, one column per window block.

        Each column is built straight from the container's window block,
        so no per-rule series is decoded or copied.
        """
        return TarArchive.from_rows(
            (self._source.window_entries(w) for w in range(self.window_count)),
            self._window_sizes,
            self._missing_count_bounds,
        )


class LazyTaraKnowledgeBase(TaraKnowledgeBase):
    """A ``TaraKnowledgeBase`` that materializes per window, on demand.

    The dataclass ``slices`` / ``rules_in_window`` lists stay empty;
    :meth:`slice` and :meth:`candidate_rules` answer from the container
    instead, caching what they materialize.  A materialized slice is
    bit-identical to the one the offline builder produced (same
    count-native construction from the same counts), so explorer
    answers cannot differ from the eager load.
    """

    def __post_init_lazy(self, sharded: ShardedArchive) -> None:
        # Not a dataclass field: the lazy caches are derived state.
        self._sharded = sharded
        self._slice_cache: Dict[int, WindowSlice] = {}
        self._window_rule_ids: Dict[int, List[RuleId]] = {}

    @classmethod
    def from_source(
        cls,
        source: ShardedSeriesSource,
        *,
        config: GenerationConfig,
        catalog: RuleCatalog,
        window_sizes: List[int],
        missing_count_bounds: List[int],
    ) -> "LazyTaraKnowledgeBase":
        sharded = ShardedArchive(source, window_sizes, missing_count_bounds)
        knowledge_base = cls(
            config=config,
            catalog=catalog,
            archive=sharded,
            window_sizes=list(window_sizes),
            timer=PhaseTimer(),
        )
        knowledge_base.__post_init_lazy(sharded)
        return knowledge_base

    # ------------------------------------------------------------------
    # window-indexed surface, redirected at the container
    # ------------------------------------------------------------------
    @property
    def window_count(self) -> int:
        """Number of windows in the container (none need be resident)."""
        return len(self.window_sizes)

    def all_windows(self) -> PeriodSpec:
        """Spec naming every window of the container."""
        return PeriodSpec(range(len(self.window_sizes)))

    def slice(self, window: int) -> WindowSlice:
        """The EPS slice of one window, materialized on first touch.

        Built from the container's window block by
        :meth:`WindowSlice.from_rows`, the offline builder's
        constructor, so it is bit-identical to the eager load's slice.
        The first touch runs under :func:`paused_gc`: it only allocates
        the slice and id list it keeps and acyclic temporaries.
        """
        cached = self._slice_cache.get(window)
        if cached is not None:
            return cached
        if not 0 <= window < len(self.window_sizes):
            raise UnknownWindowError(
                f"window {window} out of range [0, {len(self.window_sizes)})"
            )
        config = self.config
        with paused_gc():
            rows = self._sharded.window_entries(window)
            window_slice = WindowSlice.from_rows(
                window,
                self.window_sizes[window],
                rows,
                generation_setting=config.setting,
                catalog=self.catalog if config.build_item_index else None,
            )
            # The same rows answer candidate_rules, so the block is
            # decoded once per window.
            self._window_rule_ids.setdefault(window, [row[0] for row in rows])
        self._slice_cache[window] = window_slice
        return window_slice

    def candidate_rules(self, spec: PeriodSpec) -> List[RuleId]:
        """Union of rules archived in any window of *spec* (sorted ids).

        Answered from the window blocks' id columns — no per-rule
        series is decoded.
        """
        seen: set[RuleId] = set()
        for window in spec:
            seen.update(self._rule_ids_in(window))
        return sorted(seen)

    def _rule_ids_in(self, window: int) -> List[RuleId]:
        """One window's archived rule ids (ascending), cached."""
        cached = self._window_rule_ids.get(window)
        if cached is None:
            if not 0 <= window < len(self.window_sizes):
                raise UnknownWindowError(
                    f"window {window} out of range [0, {len(self.window_sizes)})"
                )
            cached = [
                entry[0] for entry in self._sharded.window_entries(window)
            ]
            self._window_rule_ids[window] = cached
        return cached

    # ------------------------------------------------------------------
    # copy-on-write publication
    # ------------------------------------------------------------------
    def clone(self) -> TaraKnowledgeBase:
        """An appendable eager successor (for snapshot publication).

        The container cannot grow in place, so the successor is a plain
        in-memory knowledge base: its archive columns and window id
        lists come from the window blocks, and every slice is
        materialized once.  Its own clones are O(windows) as usual.
        """
        windows = range(len(self.window_sizes))
        return TaraKnowledgeBase(
            config=self.config,
            catalog=self.catalog.clone(),
            archive=self._sharded.clone(),
            slices=[self.slice(w) for w in windows],
            rules_in_window=[self._rule_ids_in(w) for w in windows],
            window_sizes=list(self.window_sizes),
            timer=self.timer,
        )

    def storage_counters(self) -> Dict[str, int]:
        """Shard/window/LRU accounting from the underlying reader."""
        counters = dict(self._sharded.source.counters())
        counters["slices_materialized"] = len(self._slice_cache)
        return counters

    def close(self) -> None:
        """Release the mmap (queries after this will fail)."""
        self._sharded.source.close()
