"""Offline phase: the Association Generator and Knowledge Base Constructor.

Figure 2 of the paper splits TARA into an offline preprocessing phase
and an online explorer.  This module is the offline phase: for every
basic window it

1. mines the frequent itemsets at the *generation* support threshold
   (Table 4's per-dataset thresholds),
2. derives the rules at the generation confidence threshold,
3. archives each rule's counts into the :class:`~repro.core.archive.TarArchive`,
4. inserts the rules' parametric locations into that window's
   :class:`~repro.core.regions.WindowSlice` of the EPS index,

timing each task separately so the Figure 9 preprocessing breakdown can
be reported per task.  Windows are mined one after another in window
order, each exactly once (the iPARAS model); docs/performance.md records
why no parallel build is offered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.common.errors import NotBuiltError, UnknownWindowError, ValidationError
from repro.common.gcscope import paused_gc
from repro.common.timing import PhaseTimer
from repro.core.archive import TarArchive
from repro.core.regions import ParameterSetting, WindowSlice
from repro.data.periods import PeriodSpec
from repro.data.transactions import Transaction
from repro.data.windows import WindowedDatabase
from repro.mining import MINERS
from repro.mining.itemsets import min_count_for
from repro.mining.rules import RuleCatalog, RuleId, derive_rules

# Task names used in the Figure 9 breakdown.
PHASE_ITEMSETS = "frequent itemset generation"
PHASE_RULES = "rule derivation"
PHASE_ARCHIVE = "archival"
PHASE_EPS = "EPS index update"


@dataclass(frozen=True)
class GenerationConfig:
    """Offline generation thresholds and build options.

    Attributes:
        min_support: generation support threshold (Table 4 column).
        min_confidence: generation confidence threshold.
        miner: itemset miner name — one of :data:`repro.mining.MINERS`.
            Defaults to the vertical bitmap kernel
            (:func:`repro.mining.vertical.mine_vertical`), the fastest
            miner; every miner produces a byte-identical knowledge base
            (rule ids, archive bytes, EPS regions — fingerprint-gated
            by ``repro bench``), so the knob is purely about speed.
        build_item_index: build the TARA-S per-location item index
            (enables content queries, costs extra build time and space).
        max_itemset_size: optional cap on mined itemset cardinality.
    """

    min_support: float
    min_confidence: float
    miner: str = "vertical"
    build_item_index: bool = False
    max_itemset_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.miner not in MINERS:
            raise ValidationError(
                f"unknown miner {self.miner!r}; known: {sorted(MINERS)}"
            )
        # Delegate range validation to ParameterSetting's rules.
        ParameterSetting(self.min_support, self.min_confidence)

    @property
    def setting(self) -> ParameterSetting:
        """The generation thresholds as a :class:`ParameterSetting`."""
        return ParameterSetting(self.min_support, self.min_confidence)


# Mutable by design: the incremental builder appends window slices and
# archive entries in place; the knowledge base is an aggregate root, not
# a value used as a key.
@dataclass  # repro-lint: disable=R004
class TaraKnowledgeBase:
    """Everything the online explorer needs, produced by the offline phase."""

    config: GenerationConfig
    catalog: RuleCatalog
    archive: TarArchive
    slices: List[WindowSlice] = field(default_factory=list)
    rules_in_window: List[List[RuleId]] = field(default_factory=list)
    window_sizes: List[int] = field(default_factory=list)
    timer: PhaseTimer = field(default_factory=PhaseTimer)

    @property
    def window_count(self) -> int:
        """Number of windows incorporated so far."""
        return len(self.slices)

    def slice(self, window: int) -> WindowSlice:
        """The EPS slice of one basic window."""
        if not 0 <= window < len(self.slices):
            raise UnknownWindowError(
                f"window {window} out of range [0, {len(self.slices)})"
            )
        return self.slices[window]

    def all_windows(self) -> PeriodSpec:
        """Spec naming every incorporated window."""
        if not self.slices:
            raise NotBuiltError("knowledge base has no windows yet")
        return PeriodSpec(range(len(self.slices)))

    def candidate_rules(self, spec: PeriodSpec) -> List[RuleId]:
        """Union of rules archived in any window of *spec* (sorted ids)."""
        seen: set[RuleId] = set()
        for window in spec:
            if not 0 <= window < len(self.rules_in_window):
                raise UnknownWindowError(
                    f"window {window} out of range [0, {len(self.rules_in_window)})"
                )
            seen.update(self.rules_in_window[window])
        return sorted(seen)

    def clone(self) -> "TaraKnowledgeBase":
        """A private successor for copy-on-write snapshot publication.

        O(windows): appending windows to the clone never disturbs
        readers of this knowledge base, yet nothing per rule or per
        entry is copied.  The archive clone shares every window's
        column and the catalog clone shares the rule list, key table
        and split-plan memo behind its own id bound (see their
        ``clone`` docstrings).  The window-indexed lists here are
        copied at the outer level only — the :class:`WindowSlice`
        objects and per-window id lists inside are append-once and
        never mutated after construction.  The phase timer is shared:
        it is build-time accounting written only by the single
        publisher thread, not query state.  Only the newest clone may
        intern: a second clone of the same knowledge base raises on its
        first new rule unless ``self.catalog.rollback()`` discarded what
        the first one interned.
        """
        return TaraKnowledgeBase(
            config=self.config,
            catalog=self.catalog.clone(),
            archive=self.archive.clone(),
            slices=list(self.slices),
            rules_in_window=list(self.rules_in_window),
            window_sizes=list(self.window_sizes),
            timer=self.timer,
        )


class TaraBuilder:
    """Builds a :class:`TaraKnowledgeBase` window by window."""

    def __init__(self, config: GenerationConfig) -> None:
        self.config = config
        self._miner = MINERS[config.miner]

    def build(self, windows: WindowedDatabase) -> TaraKnowledgeBase:
        """Run the full offline phase over every window of *windows*."""
        knowledge_base = TaraKnowledgeBase(
            config=self.config,
            catalog=RuleCatalog(),
            archive=TarArchive(),
        )
        self.add_windows(
            knowledge_base,
            [windows.window(index) for index in range(windows.window_count)],
        )
        knowledge_base.archive.seal()
        return knowledge_base

    def add_windows(
        self,
        knowledge_base: TaraKnowledgeBase,
        batches: Sequence[Sequence[Transaction]],
    ) -> List[WindowSlice]:
        """Incorporate several new windows, one slice per batch, in order.

        The whole incorporation runs under :func:`paused_gc`: everything
        the build allocates is retained in the knowledge base, so
        young-generation scans during the bulk phase are pure overhead.
        """
        with paused_gc():
            return [self.add_window(knowledge_base, batch) for batch in batches]

    def add_window(
        self,
        knowledge_base: TaraKnowledgeBase,
        transactions: Sequence[Transaction],
    ) -> WindowSlice:
        """Incorporate one new window (the incremental entry point).

        Mines, derives, archives and indexes the batch; returns the new
        EPS slice.  Used both by :meth:`build` and by the incremental
        builder when a fresh batch arrives.  Runs under
        :func:`paused_gc` (see :meth:`add_windows`).
        """
        config = self.config
        timer = knowledge_base.timer
        window = len(knowledge_base.slices)
        window_size = len(transactions)

        with paused_gc():
            with timer.phase(PHASE_ITEMSETS):
                itemsets = self._miner(
                    transactions,
                    config.min_support,
                    max_size=config.max_itemset_size,
                )

            with timer.phase(PHASE_RULES):
                scored = derive_rules(
                    itemsets,
                    config.min_confidence,
                    catalog=knowledge_base.catalog,
                )

            with timer.phase(PHASE_ARCHIVE):
                # A rule missing from this window was pruned either because
                # its itemset fell below the support threshold (count <
                # ceil(supp_g * n)) or because its confidence fell below
                # conf_g (count < conf_g * antecedent <= conf_g * n).  The
                # exclusive bound on an unarchived rule's count is therefore
                # the max of the two ceilings — this is what makes the
                # roll-up approximation bounds sound.
                bound = max(
                    min_count_for(config.min_support, window_size),
                    min_count_for(config.min_confidence, window_size),
                )
                knowledge_base.archive.begin_window(window_size, bound)
                knowledge_base.archive.record(window, scored)

            with timer.phase(PHASE_EPS):
                # The window's archive rows, rule id ascending: the
                # same rows the loaders rebuild a slice from.
                rows = knowledge_base.archive.window_entries(window)
                window_slice = WindowSlice.from_rows(
                    window,
                    window_size,
                    rows,
                    generation_setting=config.setting,
                    catalog=(
                        knowledge_base.catalog if config.build_item_index else None
                    ),
                )

            knowledge_base.slices.append(window_slice)
            knowledge_base.rules_in_window.append([row[0] for row in rows])
            knowledge_base.window_sizes.append(window_size)
            return window_slice


def build_knowledge_base(
    windows: WindowedDatabase, config: GenerationConfig
) -> TaraKnowledgeBase:
    """One-call convenience wrapper over :class:`TaraBuilder`."""
    return TaraBuilder(config).build(windows)
