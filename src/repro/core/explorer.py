"""The TARA Online Explorer — interactive operations over the knowledge base.

Every operation here is an index/archive lookup; none touches the raw
transactions.  That is the paper's central claim: after the offline
phase, traditional temporal mining *and* the novel exploration
operations all run in milliseconds ("3 to 5 orders of magnitude faster
than its state-of-the-art competitors").

Operation map (paper query classes → entry points):

====  ==========================================  ==================================
Q     paper operation                             entry point
====  ==========================================  ==================================
—     traditional mining with time spec           :meth:`TaraExplorer.mine`
Q1    rule trajectory across periods              ``execute(TrajectoryQuery(...))``
Q2    evolving ruleset comparison                 ``execute(CompareQuery(...))``
Q3    parameter recommendation (stable region)    ``execute(RecommendQuery(...))``
Q4    trajectory summaries / most-stable rules    :meth:`TaraExplorer.top_rules`
Q5    content-based exploration (TARA-S)          ``execute(ContentQuery(...))``
—     roll-up / drill-down                        ``execute(RollupQuery(...))``
====  ==========================================  ==================================

The request classes are frozen dataclasses (:mod:`repro.core.queries`);
:meth:`TaraExplorer.execute` is the one entry point the online serving
layer (:mod:`repro.service`) canonicalizes and caches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union, overload

from repro.common.errors import QueryError
from repro.core.archive import WindowMeasure
from repro.core.builder import TaraKnowledgeBase
from repro.core.queries import (
    CompareQuery,
    ComparisonResult,
    ContentQuery,
    ExplorerQuery,
    MatchMode,
    MinedRule,
    Recommendation,
    RecommendQuery,
    RollupAnswer,
    RollupQuery,
    RuleTrajectory,
    TrajectoryQuery,
    WindowDiff,
)
from repro.core.regions import ParameterSetting
from repro.core.rollup import rolled_up_mine
from repro.core.trajectory import TrajectorySummary, summarize_trajectory
from repro.data.periods import PeriodSpec
from repro.mining.rules import RuleId

#: Everything ``TaraExplorer.execute`` can return, by request type.
ExplorerAnswer = Union[
    List[RuleTrajectory],
    ComparisonResult,
    Recommendation,
    Dict[int, List[RuleId]],
    RollupAnswer,
]


class TaraExplorer:
    """Online query processor over a built :class:`TaraKnowledgeBase`."""

    def __init__(self, knowledge_base: TaraKnowledgeBase) -> None:
        if knowledge_base.window_count == 0:
            raise QueryError("knowledge base holds no windows; build it first")
        self.knowledge_base = knowledge_base

    # ------------------------------------------------------------------
    # unified request dispatch
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
        """Execute one frozen request dataclass (the unified entry point).

        Dispatches on the request type: :class:`TrajectoryQuery` (Q1),
        :class:`CompareQuery` (Q2), :class:`RecommendQuery` (Q3),
        :class:`ContentQuery` (Q5), :class:`RollupQuery` (roll-up).  The
        serving layer (:mod:`repro.service`) caches through it.
        """
        if isinstance(query, TrajectoryQuery):
            return self._trajectories(query)
        if isinstance(query, CompareQuery):
            return self._compare(query)
        if isinstance(query, RecommendQuery):
            return self._recommend(query)
        if isinstance(query, ContentQuery):
            return self._content(query)
        if isinstance(query, RollupQuery):
            return self._mine_rolled_up(query)
        raise QueryError(
            f"unknown explorer query type {type(query).__name__!r}"
        )

    # ------------------------------------------------------------------
    # traditional mining
    # ------------------------------------------------------------------
    def ruleset(self, setting: ParameterSetting, window: int) -> List[RuleId]:
        """Rule ids valid at *setting* in one basic window (pure lookup).

        Resolves through the window's stable-region lookup: the slice
        memoizes one ruleset per region, so every setting inside a
        region shares a single staircase scan.
        """
        return self.knowledge_base.slice(window).collect(setting)

    def mine(
        self, setting: ParameterSetting, spec: Optional[PeriodSpec] = None
    ) -> Dict[int, List[MinedRule]]:
        """Traditional temporal mining: per-window rulesets with measures.

        *spec* defaults to every window.  Each window's answer comes from
        its EPS slice; measures are decoded from the archive.
        """
        spec = self._spec(spec)
        answer: Dict[int, List[MinedRule]] = {}
        archive = self.knowledge_base.archive
        catalog = self.knowledge_base.catalog
        for window in spec:
            mined: List[MinedRule] = []
            for rule_id in self.ruleset(setting, window):
                measure = archive.measure_at(rule_id, window)
                if measure is None:  # pragma: no cover - index/archive agree
                    continue
                mined.append(
                    MinedRule(
                        rule_id=rule_id,
                        rule=catalog.get(rule_id),
                        support=measure.support,
                        confidence=measure.confidence,
                    )
                )
            answer[window] = mined
        return answer

    def _mine_rolled_up(self, query: RollupQuery) -> RollupAnswer:
        """Mining over the *merged* period (roll-up semantics).

        Answers a coarse-granularity request from archived counts; see
        :mod:`repro.core.rollup` for the exactness guarantee.
        """
        spec = query.spec.restrict_to(self.knowledge_base.window_count)
        return rolled_up_mine(self.knowledge_base, query.setting, spec)

    # ------------------------------------------------------------------
    # Q1: rule trajectory
    # ------------------------------------------------------------------
    def _trajectories(self, query: TrajectoryQuery) -> List[RuleTrajectory]:
        """Q1: rules matching the setting in the anchor window, tracked.

        The anchor ruleset comes from the EPS slice; each rule's values
        in the other requested windows are decoded from the archive
        (``None`` where the rule was not archived).
        """
        setting, anchor_window = query.setting, query.anchor_window
        spec = self._spec(query.spec)
        archive = self.knowledge_base.archive
        catalog = self.knowledge_base.catalog
        wanted = set(spec)
        result: List[RuleTrajectory] = []
        for rule_id in self.ruleset(setting, anchor_window):
            # One series decode per rule, not one lookup per window.
            measures: Dict[int, Optional[WindowMeasure]] = dict.fromkeys(spec)
            for measure in archive.series(rule_id):
                if measure.window in wanted:
                    measures[measure.window] = measure
            result.append(
                RuleTrajectory(
                    rule_id=rule_id, rule=catalog.get(rule_id), measures=measures
                )
            )
        return result

    # ------------------------------------------------------------------
    # Q2: evolving ruleset comparison
    # ------------------------------------------------------------------
    def _compare(self, query: CompareQuery) -> ComparisonResult:
        """Q2: difference of two settings' rulesets over shared periods.

        ``SINGLE`` mode reports a rule if the two settings disagree on it
        in at least one window; ``EXACT`` mode only if they disagree in
        every window of the spec.
        """
        first, second, mode = query.first, query.second, query.mode
        spec = self._spec(query.spec)
        per_window: List[WindowDiff] = []
        only_first_votes: Dict[RuleId, int] = {}
        only_second_votes: Dict[RuleId, int] = {}
        for window in spec:
            ruleset_first = set(self.ruleset(first, window))
            ruleset_second = set(self.ruleset(second, window))
            only_first = tuple(sorted(ruleset_first - ruleset_second))
            only_second = tuple(sorted(ruleset_second - ruleset_first))
            per_window.append(
                WindowDiff(
                    window=window,
                    only_first=only_first,
                    only_second=only_second,
                    common=tuple(sorted(ruleset_first & ruleset_second)),
                )
            )
            for rule_id in only_first:
                only_first_votes[rule_id] = only_first_votes.get(rule_id, 0) + 1
            for rule_id in only_second:
                only_second_votes[rule_id] = only_second_votes.get(rule_id, 0) + 1

        needed = len(spec) if mode is MatchMode.EXACT else 1
        aggregated_first = tuple(
            sorted(r for r, votes in only_first_votes.items() if votes >= needed)
        )
        aggregated_second = tuple(
            sorted(r for r, votes in only_second_votes.items() if votes >= needed)
        )
        return ComparisonResult(
            first=first,
            second=second,
            mode=mode,
            per_window=tuple(per_window),
            only_first=aggregated_first,
            only_second=aggregated_second,
        )

    # ------------------------------------------------------------------
    # Q3: parameter recommendation
    # ------------------------------------------------------------------
    def _recommend(self, query: RecommendQuery) -> Recommendation:
        """Q3: the enclosing stable region and its axis neighbors.

        The window defaults to the latest.  The region bounds answer
        "how far can I move the thresholds without changing the
        result"; the neighbors preview the ruleset-size effect of
        crossing each boundary.
        """
        setting, window = query.setting, query.window
        if window is None:
            window = self.knowledge_base.window_count - 1
        window_slice = self.knowledge_base.slice(window)
        region = window_slice.region_for(setting)
        neighbors = window_slice.neighbor_regions(setting)
        return Recommendation(
            window=window, setting=setting, region=region, neighbors=neighbors
        )

    # ------------------------------------------------------------------
    # Q4: trajectory summarization / insight queries
    # ------------------------------------------------------------------
    def summarize(
        self, rule_id: RuleId, spec: Optional[PeriodSpec] = None
    ) -> TrajectorySummary:
        """Coverage/stability/std/trend of one rule over *spec*."""
        spec = self._spec(spec)
        # One series read per rule, not one archive lookup per window.
        archived = {
            measure.window: measure
            for measure in self.knowledge_base.archive.series(rule_id)
        }
        return summarize_trajectory(
            rule_id, [archived.get(window) for window in spec]
        )

    def top_rules(
        self,
        setting: ParameterSetting,
        anchor_window: int,
        *,
        key: str = "stability",
        k: int = 10,
        spec: Optional[PeriodSpec] = None,
        descending: bool = True,
    ) -> List[TrajectorySummary]:
        """Q4: top-*k* matching rules ranked by a trajectory measure.

        *key* is any numeric :class:`TrajectorySummary` field
        (``"stability"``, ``"coverage"``, ``"trend"``,
        ``"confidence_std"``, ...); ``descending=False`` ranks ascending
        (e.g. the *least* stable rules).
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        spec = self._spec(spec)
        summaries = [
            self.summarize(rule_id, spec)
            for rule_id in self.ruleset(setting, anchor_window)
        ]
        try:
            summaries.sort(
                key=lambda s: getattr(s, key), reverse=descending
            )
        except AttributeError:
            raise QueryError(f"unknown trajectory measure {key!r}") from None
        return summaries[:k]

    # ------------------------------------------------------------------
    # Q5: content-based exploration
    # ------------------------------------------------------------------
    def _content(self, query: ContentQuery) -> Dict[int, List[RuleId]]:
        """Q5: valid rules mentioning any of the items, per window.

        Requires a knowledge base built with ``build_item_index=True``
        (the TARA-S variant).
        """
        if not query.items:
            raise QueryError("content query needs at least one item")
        spec = self._spec(query.spec)
        return {
            window: self.knowledge_base.slice(window).collect_items(
                query.setting, query.items
            )
            for window in spec
        }

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _spec(self, spec: Optional[PeriodSpec]) -> PeriodSpec:
        if spec is None:
            return self.knowledge_base.all_windows()
        return spec.restrict_to(self.knowledge_base.window_count)
