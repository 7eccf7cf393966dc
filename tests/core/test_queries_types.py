"""The query/result value objects of the online explorer."""

import pytest

from repro.core.archive import WindowMeasure
from repro.core.queries import (
    ComparisonResult,
    MatchMode,
    MinedRule,
    RollupAnswer,
    RuleTrajectory,
    WindowDiff,
)
from repro.core.regions import ParameterSetting
from repro.mining.rules import Rule


def measure(window, rule_count=10, antecedent_count=20, window_size=100):
    return WindowMeasure(
        window=window,
        rule_count=rule_count,
        antecedent_count=antecedent_count,
        window_size=window_size,
        consequent_count=rule_count,
    )


def entry(window, rule_count=10, antecedent_count=20):
    """The archive entry of :func:`measure`'s counts."""
    return (window, rule_count, antecedent_count, rule_count)


#: ``(window, size)`` of windows 0-2, as the explorer shares per answer.
SIZES = ((0, 100), (1, 100), (2, 100))


class TestRuleTrajectory:
    def test_present_windows_sorted_and_filtered(self):
        trajectory = RuleTrajectory(
            rule_id=0,
            rule=Rule((1,), (2,)),
            entries=(entry(1), entry(2)),
            window_sizes=SIZES,
        )
        assert trajectory.present_windows() == (1, 2)

    def test_series_align_with_present_windows(self):
        trajectory = RuleTrajectory(
            rule_id=0,
            rule=Rule((1,), (2,)),
            entries=(
                entry(0, rule_count=10),
                entry(2, rule_count=15, antecedent_count=20),
            ),
            window_sizes=SIZES,
        )
        assert trajectory.support_series() == [0.1, 0.15]
        assert trajectory.confidence_series() == [0.5, 0.75]

    def test_all_absent(self):
        trajectory = RuleTrajectory(
            rule_id=0, rule=Rule((1,), (2,)), entries=(), window_sizes=((0, 100),)
        )
        assert trajectory.present_windows() == ()
        assert trajectory.support_series() == []

    def test_measures_are_built_from_the_counts_on_read(self):
        trajectory = RuleTrajectory(
            rule_id=0,
            rule=Rule((1,), (2,)),
            entries=(entry(0), entry(2, rule_count=15)),
            window_sizes=SIZES,
        )
        assert trajectory.measures == {
            0: measure(0),
            1: None,
            2: measure(2, rule_count=15),
        }
        assert list(trajectory.measures) == [0, 1, 2]
        with pytest.raises(AttributeError):
            trajectory.measures = {}  # type: ignore[misc]


class TestComparisonResult:
    def test_difference_size(self):
        result = ComparisonResult(
            first=ParameterSetting(0.1, 0.1),
            second=ParameterSetting(0.2, 0.2),
            mode=MatchMode.SINGLE,
            per_window=(
                WindowDiff(window=0, only_first=(1, 2), only_second=(), common=(3,)),
            ),
            only_first=(1, 2),
            only_second=(9,),
        )
        assert result.difference_size == 3


class TestMatchMode:
    def test_values(self):
        assert MatchMode("exact") is MatchMode.EXACT
        assert MatchMode("single") is MatchMode.SINGLE


class TestMinedRule:
    def test_frozen(self):
        mined = MinedRule(
            rule_id=1, rule=Rule((1,), (2,)), support=0.1, confidence=0.5
        )
        with pytest.raises(AttributeError):
            mined.support = 0.9  # type: ignore[misc]


class TestRollupAnswer:
    def test_is_exact_when_sets_match(self):
        answer = RollupAnswer(
            setting=ParameterSetting(0.1, 0.1),
            windows=(0, 1),
            certain=(),
            possible=(),
            max_support_error=0.01,
        )
        assert answer.is_exact
