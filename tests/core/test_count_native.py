"""Count-native EPS construction ≡ the Fraction-keyed reference path.

Every slice is built from a window's archive rows, grouped by raw
integer count pairs, and query settings resolve through float-bisected
axes (:func:`repro.core.locations.group_rows`,
:func:`repro.core.locations.count_axes`,
:meth:`repro.core.regions.WindowSlice.from_rows`,
:func:`repro.core.regions._axis_rank`).  These properties pin the
equivalence with the exact ``Fraction``-keyed reference implementations
they replaced, including the adversarial boundary cases: exact axis
hits, near-collision rationals that agree in float space, and
generation-threshold edges.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.core.locations import (
    count_axes,
    group_by_location,
    group_rows,
    location_of,
)
from repro.core.regions import ParameterSetting, WindowSlice, _axis_rank
from repro.mining.rules import Rule, RuleCatalog, ScoredRule

RULE = Rule((1,), (2,))


def scored(rule_id, rule_count, antecedent_count, window_size):
    return ScoredRule(
        rule_id=rule_id,
        rule=RULE,
        support=rule_count / window_size,
        confidence=rule_count / antecedent_count,
        rule_count=rule_count,
        antecedent_count=antecedent_count,
        window_size=window_size,
    )


def rows_of(rules):
    """The archive rows (``window_entries`` shape) of scored rules."""
    return [
        (s.rule_id, s.rule_count, s.antecedent_count, s.consequent_count)
        for s in rules
    ]


@st.composite
def scored_window(draw):
    """A window of random scored rules sharing one window size."""
    window_size = draw(st.integers(min_value=1, max_value=400))
    count_pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=window_size),
                st.integers(min_value=1, max_value=window_size),
            ).filter(lambda pair: pair[0] <= pair[1]),
            min_size=0,
            max_size=60,
        )
    )
    return [
        scored(rule_id, rule_count, antecedent_count, window_size)
        for rule_id, (rule_count, antecedent_count) in enumerate(count_pairs)
    ]


class TestGroupingEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(scored_window())
    def test_count_grouping_matches_fraction_grouping(self, rules):
        """Property (a): integer count-pair grouping ≡ group_by_location."""
        by_location = group_by_location(rules)
        by_counts = group_rows(rows_of(rules))
        assert len(by_counts) == len(by_location)
        if rules:
            window_size = rules[0].window_size
            translated = {
                (Fraction(rule_count, window_size), Fraction(p, q)): rule_ids
                for (rule_count, p, q), rule_ids in by_counts.items()
            }
            assert translated == {
                (location.support, location.confidence): rule_ids
                for location, rule_ids in by_location.items()
            }

    @settings(max_examples=100, deadline=None)
    @given(scored_window())
    def test_count_native_slice_equals_reference_slice(self, rules):
        """The hot-path constructor produces an identical WindowSlice."""
        setting = ParameterSetting(0.0, 0.0)
        reference = WindowSlice(
            3, group_by_location(rules), generation_setting=setting
        )
        window_size = rules[0].window_size if rules else 1
        native = WindowSlice.from_rows(
            3, window_size, rows_of(rules), generation_setting=setting
        )
        assert native.supports == reference.supports
        assert native.confidences == reference.confidences
        assert native.location_count == reference.location_count
        assert native.rule_count == reference.rule_count
        assert sorted(native.locations()) == sorted(reference.locations())

    def test_zero_count_rules_share_one_confidence(self):
        """0/3 and 0/7 are the same exact confidence (key normalizes)."""
        rules = [
            scored(0, rule_count=0, antecedent_count=3, window_size=10),
            scored(1, rule_count=0, antecedent_count=7, window_size=10),
        ]
        assert group_rows(rows_of(rules)) == {(0, 0, 1): [0, 1]}
        assert len(group_by_location(rules)) == 1

    def test_empty_window_rejected(self):
        with pytest.raises(ValidationError):
            WindowSlice.from_rows(
                0,
                0,
                rows_of([ScoredRule(0, RULE, 0.0, 0.0, 0, 1, 0)]),
                generation_setting=ParameterSetting(0.0, 0.0),
            )
        with pytest.raises(ValidationError):
            location_of(ScoredRule(0, RULE, 0.0, 0.0, 0, 1, 0))

    def test_out_of_range_counts_rejected_at_axis_boundary(self):
        with pytest.raises(ValidationError):
            count_axes(5, {(7, 7, 10)})  # support 7/5 > 1
        with pytest.raises(ValidationError):
            count_axes(5, {(2, 3, 2)})  # confidence 3/2 > 1


class TestCountAxes:
    @settings(max_examples=200, deadline=None)
    @given(scored_window())
    def test_axes_and_ranks_match_reference(self, rules):
        """count_axes reproduces distinct_axes order with correct ranks."""
        groups = group_rows(rows_of(rules))
        window_size = rules[0].window_size if rules else 1
        supports, confidences, support_rank, confidence_rank = count_axes(
            window_size, groups
        )
        locations = [location_of(s) for s in rules]
        assert supports == sorted({loc.support for loc in locations})
        assert confidences == sorted({loc.confidence for loc in locations})
        for rule_count, rank in support_rank.items():
            assert supports[rank] == Fraction(rule_count, window_size)
        for (p, q), rank in confidence_rank.items():
            assert confidences[rank] == Fraction(p, q)

    def test_near_collision_rationals_stay_distinct(self):
        """Pairs that collide in float space keep their exact order."""
        # 1/3 and 333333333333/10**12 round to the same float but are
        # distinct rationals; 333333333333/10**12 < 1/3 exactly.
        groups = {
            (1, 1, 3),
            (2, 333333333333, 10**12),
            (3, 333333333334, 10**12),
        }
        _, confidences, _, confidence_rank = count_axes(10, groups)
        assert confidences == sorted(confidences)
        assert len(confidences) == 3
        assert confidence_rank[(333333333333, 10**12)] == 0
        assert confidence_rank[(1, 3)] == 1
        assert confidence_rank[(333333333334, 10**12)] == 2


def _all_rules():
    """Every rule over six items with one- or two-item sides."""
    sides = [(item,) for item in range(6)] + list(combinations(range(6), 2))
    return [
        Rule(antecedent, consequent)
        for antecedent in sides
        for consequent in sides
        if not set(antecedent) & set(consequent)
    ]


#: Rule id ``i`` is ``ALL_RULES[i]`` in ``CATALOG``; with six items,
#: every item is shared by many rules and so by many locations.
ALL_RULES = _all_rules()
CATALOG = RuleCatalog()
for _rule in ALL_RULES:
    CATALOG.intern(_rule)


@st.composite
def window_rows(draw):
    """``(window_size, rows)``: one window's archive rows, id ascending.

    Each rule's confidence is ``p/q`` with ``q <= 4`` scaled by ``k``,
    so confidence ties across different count pairs are common, ``p ==
    q`` gives an antecedent count equal to the rule count, and ``p ==
    0`` gives zero-count rules whose raw pairs differ but share one
    location.
    """
    window_size = draw(st.integers(min_value=1, max_value=80))
    rule_ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(ALL_RULES) - 1),
            unique=True,
            max_size=60,
        )
    )
    rows = []
    for rule_id in sorted(rule_ids):
        q = draw(st.integers(min_value=1, max_value=min(4, window_size)))
        p = draw(st.integers(min_value=0, max_value=q))
        k = draw(st.integers(min_value=1, max_value=window_size // q))
        rule_count = k * p
        consequent_count = rule_count + draw(st.integers(min_value=0, max_value=5))
        rows.append((rule_id, rule_count, k * q, consequent_count))
    return window_size, rows


class TestRowsConstructor:
    @settings(max_examples=150, deadline=None)
    @given(window_rows())
    @example(
        (
            12,
            [
                (0, 1, 2, 1),  # confidence 1/2 ...
                (1, 2, 4, 3),  # ... tied at another count pair
                (2, 3, 3, 3),  # antecedent count == rule count
                (3, 3, 3, 4),  # same pair, same location as rule 2
                (4, 0, 2, 0),  # zero counts: 0/2 and 0/3 ...
                (5, 0, 3, 1),  # ... share one location
            ],
        )
    )
    @example((10, [(0, 0, 3, 0), (1, 0, 2, 0), (2, 0, 3, 1)]))  # interleaved merge
    def test_rows_slice_equals_reference_slice(self, window_and_rows):
        window_size, rows = window_and_rows
        setting = ParameterSetting(0.0, 0.0)
        scored_rules = [
            ScoredRule(
                rule_id=rule_id,
                rule=ALL_RULES[rule_id],
                support=rule_count / window_size,
                confidence=rule_count / antecedent_count,
                rule_count=rule_count,
                antecedent_count=antecedent_count,
                window_size=window_size,
                consequent_count=consequent_count,
            )
            for rule_id, rule_count, antecedent_count, consequent_count in rows
        ]
        reference = WindowSlice(
            5, group_by_location(scored_rules), generation_setting=setting,
            catalog=CATALOG,
        )
        native = WindowSlice.from_rows(
            5, window_size, rows, generation_setting=setting, catalog=CATALOG
        )
        assert native.supports == reference.supports
        assert native.confidences == reference.confidences
        assert sorted(native.locations()) == sorted(reference.locations())
        for si in range(len(native.supports) + 1):
            for ci in range(len(native.confidences) + 1):
                assert native.ruleset_for_region(si, ci) == (
                    reference.ruleset_for_region(si, ci)
                )
        for support in native.supports:
            for confidence in native.confidences:
                query = ParameterSetting(float(support), float(confidence))
                valid = native.collect(query)
                for items in ((0,), (1, 4), (2, 3, 5)):
                    mentioning = [
                        rule_id
                        for rule_id in valid
                        if set(ALL_RULES[rule_id].items) & set(items)
                    ]
                    assert native.collect_items(query, items) == mentioning
                    assert reference.collect_items(query, items) == mentioning

    def test_zero_antecedent_count_is_rejected(self):
        with pytest.raises(ValidationError):
            WindowSlice.from_rows(
                0, 10, [(0, 0, 0, 0)], generation_setting=ParameterSetting(0.0, 0.0)
            )


def reference_rank(axis, value):
    """The old Fraction-based rank: the exact semantics _axis_rank keeps."""
    return bisect_left(axis, Fraction(value).limit_denominator(10**12))


axis_fraction = st.fractions(
    min_value=0, max_value=1, max_denominator=10**13
)


class TestAxisRank:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(axis_fraction, min_size=0, max_size=40, unique=True),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_random_queries_match_fraction_bisect(self, values, query):
        """Property (b): float-bisect rank ≡ old Fraction-based rank."""
        axis = sorted(values)
        axis_float = [float(v) for v in axis]
        assert _axis_rank(axis, axis_float, query) == reference_rank(axis, query)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(axis_fraction, min_size=1, max_size=40, unique=True), st.data())
    def test_exact_boundary_hits(self, values, data):
        """Queries sitting exactly on a float axis value resolve exactly."""
        axis = sorted(values)
        axis_float = [float(v) for v in axis]
        query = data.draw(st.sampled_from(axis_float))
        assert _axis_rank(axis, axis_float, query) == reference_rank(axis, query)

    def test_near_collision_axis_values(self):
        """Adjacent rationals closer than float resolution still rank right."""
        axis = sorted(
            [
                Fraction(333333333333, 10**12),
                Fraction(1, 3),
                Fraction(333333333334, 10**12),
            ]
        )
        axis_float = [float(v) for v in axis]
        for query in (1 / 3, 0.333333333333, 0.333333333334, 0.0, 1.0):
            assert _axis_rank(axis, axis_float, query) == reference_rank(
                axis, query
            )

    def test_generation_threshold_edges(self):
        """Queries at/just past the generation thresholds stay consistent."""
        axis = [Fraction(1, 100), Fraction(3, 100), Fraction(30, 100)]
        axis_float = [float(v) for v in axis]
        for query in (0.01, 0.3, 0.010000000000000002, 0.29999999999999993):
            assert _axis_rank(axis, axis_float, query) == reference_rank(
                axis, query
            )

    @settings(max_examples=200, deadline=None)
    @given(scored_window(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_cut_ranks_match_old_semantics_end_to_end(self, rules, supp, conf):
        """WindowSlice._cut_ranks ≡ the old per-query Fraction bisects."""
        setting = ParameterSetting(0.0, 0.0)
        window_size = rules[0].window_size if rules else 1
        window_slice = WindowSlice.from_rows(
            0, window_size, rows_of(rules), generation_setting=setting
        )
        query = ParameterSetting(supp, conf)
        si, ci = window_slice.region_ranks(query)
        assert si == reference_rank(window_slice.supports, supp)
        assert ci == reference_rank(window_slice.confidences, conf)
