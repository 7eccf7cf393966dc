"""The online explorer: every query class against direct-mining oracles."""

import pytest

from repro.common.errors import QueryError
from repro.core import (
    CompareQuery,
    ContentQuery,
    MatchMode,
    ParameterSetting,
    RecommendQuery,
    TaraExplorer,
    TrajectoryQuery,
)
from repro.data.periods import PeriodSpec
from repro.mining.apriori import mine_apriori
from repro.mining.rules import derive_rules


@pytest.fixture(scope="module")
def explorer(small_kb) -> TaraExplorer:
    return TaraExplorer(small_kb)


SETTING = ParameterSetting(0.05, 0.3)


def oracle_ruleset(small_windows, small_kb, setting, window):
    """Direct mining of one window at the query thresholds."""
    config = small_kb.config
    scored = derive_rules(
        mine_apriori(small_windows.window(window), config.min_support),
        config.min_confidence,
    )
    return sorted(
        small_kb.catalog.find(s.rule.antecedent, s.rule.consequent)
        for s in scored
        if s.support >= setting.min_support
        and s.confidence >= setting.min_confidence
    )


class TestMining:
    def test_ruleset_matches_oracle_every_window(
        self, explorer, small_windows, small_kb
    ):
        for window in range(small_kb.window_count):
            assert explorer.ruleset(SETTING, window) == oracle_ruleset(
                small_windows, small_kb, SETTING, window
            )

    def test_mine_returns_measures(self, explorer):
        answer = explorer.mine(SETTING, PeriodSpec([1]))
        assert set(answer) == {1}
        for mined in answer[1]:
            assert mined.support >= SETTING.min_support
            assert mined.confidence >= SETTING.min_confidence

    def test_mine_defaults_to_all_windows(self, explorer, small_kb):
        answer = explorer.mine(SETTING)
        assert set(answer) == set(range(small_kb.window_count))

    def test_mine_restricts_out_of_range_spec(self, explorer):
        answer = explorer.mine(SETTING, PeriodSpec([0, 99]))
        assert set(answer) == {0}

    def test_empty_knowledge_base_rejected(self, small_kb):
        from repro.core.builder import TaraKnowledgeBase
        from repro.core.archive import TarArchive
        from repro.mining.rules import RuleCatalog

        empty = TaraKnowledgeBase(
            config=small_kb.config, catalog=RuleCatalog(), archive=TarArchive()
        )
        with pytest.raises(QueryError):
            TaraExplorer(empty)


class TestTrajectories:
    def test_anchored_rules_match_ruleset(self, explorer):
        trajectories = explorer.execute(
            TrajectoryQuery(setting=SETTING, anchor_window=2)
        )
        assert sorted(t.rule_id for t in trajectories) == explorer.ruleset(
            SETTING, 2
        )

    def test_measures_cover_requested_spec(self, explorer, small_kb):
        spec = PeriodSpec([0, 3])
        trajectories = explorer.execute(
            TrajectoryQuery(setting=SETTING, anchor_window=3, spec=spec)
        )
        for trajectory in trajectories:
            assert set(trajectory.measures) == {0, 3}
            # The anchor window always has a measure (rule valid there).
            assert trajectory.measures[3] is not None

    def test_series_helpers(self, explorer):
        trajectory = explorer.execute(
            TrajectoryQuery(setting=SETTING, anchor_window=2)
        )[0]
        present = trajectory.present_windows()
        assert len(trajectory.support_series()) == len(present)
        assert len(trajectory.confidence_series()) == len(present)
        assert all(0 <= s <= 1 for s in trajectory.support_series())


class TestCompare:
    LOOSE = ParameterSetting(0.04, 0.25)
    TIGHT = ParameterSetting(0.08, 0.25)

    def test_per_window_diffs_match_rulesets(self, explorer, small_kb):
        result = explorer.execute(
            CompareQuery(first=self.LOOSE, second=self.TIGHT)
        )
        for diff in result.per_window:
            loose_rules = set(explorer.ruleset(self.LOOSE, diff.window))
            tight_rules = set(explorer.ruleset(self.TIGHT, diff.window))
            assert set(diff.only_first) == loose_rules - tight_rules
            assert set(diff.only_second) == tight_rules - loose_rules
            assert set(diff.common) == loose_rules & tight_rules

    def test_tighter_setting_is_subset(self, explorer):
        result = explorer.execute(
            CompareQuery(first=self.LOOSE, second=self.TIGHT)
        )
        assert result.only_second == ()  # tight ⊆ loose always

    def test_single_vs_exact_mode(self, explorer, small_kb):
        single = explorer.execute(
            CompareQuery(
                first=self.LOOSE, second=self.TIGHT, mode=MatchMode.SINGLE
            )
        )
        exact = explorer.execute(
            CompareQuery(
                first=self.LOOSE, second=self.TIGHT, mode=MatchMode.EXACT
            )
        )
        assert set(exact.only_first) <= set(single.only_first)
        # EXACT keeps only rules differing in every window.
        window_count = small_kb.window_count
        votes = {}
        for diff in single.per_window:
            for rule_id in diff.only_first:
                votes[rule_id] = votes.get(rule_id, 0) + 1
        expected_exact = sorted(r for r, v in votes.items() if v == window_count)
        assert list(exact.only_first) == expected_exact

    def test_identical_settings_no_difference(self, explorer):
        result = explorer.execute(
            CompareQuery(first=self.LOOSE, second=self.LOOSE)
        )
        assert result.difference_size == 0


class TestRecommend:
    def test_region_contains_setting(self, explorer):
        recommendation = explorer.execute(
            RecommendQuery(setting=SETTING, window=1)
        )
        assert recommendation.region.contains(SETTING)
        assert recommendation.window == 1

    def test_defaults_to_latest_window(self, explorer, small_kb):
        recommendation = explorer.execute(RecommendQuery(setting=SETTING))
        assert recommendation.window == small_kb.window_count - 1

    def test_region_size_equals_ruleset(self, explorer):
        recommendation = explorer.execute(
            RecommendQuery(setting=SETTING, window=0)
        )
        assert recommendation.region.ruleset_size == len(
            explorer.ruleset(SETTING, 0)
        )

    def test_ruleset_delta_signs(self, explorer):
        recommendation = explorer.execute(
            RecommendQuery(setting=SETTING, window=0)
        )
        looser = recommendation.ruleset_delta("looser_support")
        if looser is not None:
            assert looser >= 0
        tighter = recommendation.ruleset_delta("tighter_support")
        if tighter is not None:
            assert tighter <= 0
        assert recommendation.ruleset_delta("no_such_direction") is None


class TestTopRules:
    def test_ranked_by_stability_descending(self, explorer):
        tops = explorer.top_rules(SETTING, 2, key="stability", k=5)
        values = [t.stability for t in tops]
        assert values == sorted(values, reverse=True)

    def test_ascending_order(self, explorer):
        tops = explorer.top_rules(
            SETTING, 2, key="confidence_std", k=5, descending=False
        )
        values = [t.confidence_std for t in tops]
        assert values == sorted(values)

    def test_k_limits_results(self, explorer):
        assert len(explorer.top_rules(SETTING, 2, k=3)) <= 3

    def test_unknown_key_rejected(self, explorer):
        with pytest.raises(QueryError, match="unknown trajectory measure"):
            explorer.top_rules(SETTING, 2, key="nope")

    def test_bad_k_rejected(self, explorer):
        with pytest.raises(QueryError):
            explorer.top_rules(SETTING, 2, k=0)


class TestContent:
    def test_content_rules_mention_item(self, explorer, small_kb):
        answer = explorer.execute(
            ContentQuery(setting=SETTING, items=(3,), spec=PeriodSpec([1]))
        )
        for rule_id in answer[1]:
            assert 3 in small_kb.catalog.get(rule_id).items

    def test_content_subset_of_ruleset(self, explorer):
        answer = explorer.execute(
            ContentQuery(setting=SETTING, items=(3,), spec=PeriodSpec([1]))
        )
        assert set(answer[1]) <= set(explorer.ruleset(SETTING, 1))

    def test_empty_items_rejected(self, explorer):
        with pytest.raises(QueryError):
            explorer.execute(ContentQuery(setting=SETTING, items=()))


class TestSummarize:
    def test_summary_consistent_with_archive(self, explorer, small_kb):
        rule_id = explorer.ruleset(SETTING, 0)[0]
        summary = explorer.summarize(rule_id)
        windows_present = len(small_kb.archive.windows_of(rule_id))
        assert summary.windows_present == windows_present
        assert summary.windows_requested == small_kb.window_count
        assert summary.coverage == pytest.approx(
            windows_present / small_kb.window_count
        )


class TestExecuteDispatch:
    def test_unknown_request_type_rejected(self, explorer):
        with pytest.raises(QueryError, match="unknown"):
            explorer.execute(SETTING)  # a setting is not a request
