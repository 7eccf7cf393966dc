"""Stable regions and the WindowSlice index: collection, regions, neighbors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import QueryError
from repro.core.locations import Location, group_by_location
from repro.core import regions
from repro.core.regions import ParameterSetting, WindowSlice
from repro.mining.apriori import mine_apriori
from repro.mining.rules import RuleCatalog, derive_rules


def build_slice(transactions, gen_supp=0.0, gen_conf=0.0, item_index=False):
    """Mine a transaction list and index the scored rules into a slice."""
    catalog = RuleCatalog()
    scored = derive_rules(mine_apriori(transactions, gen_supp), gen_conf, catalog=catalog)
    groups = group_by_location(scored)
    window_slice = WindowSlice(
        0,
        groups,
        generation_setting=ParameterSetting(gen_supp, gen_conf),
        catalog=catalog if item_index else None,
    )
    return window_slice, scored, catalog


TRANSACTIONS = [
    (1, 3, 4),
    (2, 3, 5),
    (1, 2, 3, 5),
    (2, 5),
    (1, 2, 3, 5),
    (1, 4),
    (3, 5),
    (2, 3),
]


def brute_collect(scored, setting):
    return sorted(
        s.rule_id
        for s in scored
        if s.support >= setting.min_support
        and s.confidence >= setting.min_confidence
    )


class TestParameterSetting:
    def test_valid(self):
        setting = ParameterSetting(0.1, 0.5)
        assert setting.min_support == 0.1

    @pytest.mark.parametrize("supp,conf", [(-0.1, 0.5), (0.5, 1.5), ("a", 0.5)])
    def test_invalid_rejected(self, supp, conf):
        with pytest.raises(Exception):
            ParameterSetting(supp, conf)


class TestCollect:
    @pytest.mark.parametrize(
        "supp,conf",
        [(0.0, 0.0), (0.125, 0.3), (0.25, 0.5), (0.25, 0.8), (0.5, 0.5), (0.9, 0.9)],
    )
    def test_matches_brute_force_filter(self, supp, conf):
        window_slice, scored, _ = build_slice(TRANSACTIONS)
        setting = ParameterSetting(supp, conf)
        assert window_slice.collect(setting) == brute_collect(scored, setting)

    def test_bfs_equals_scan(self):
        window_slice, scored, _ = build_slice(TRANSACTIONS)
        for supp, conf in [(0.0, 0.0), (0.2, 0.4), (0.3, 0.7), (1.0, 1.0)]:
            setting = ParameterSetting(supp, conf)
            assert window_slice.collect_bfs(setting) == window_slice.collect(setting)

    def test_query_below_generation_threshold_rejected(self):
        window_slice, _, _ = build_slice(TRANSACTIONS, gen_supp=0.2, gen_conf=0.3)
        with pytest.raises(QueryError, match="generation thresholds"):
            window_slice.collect(ParameterSetting(0.1, 0.5))
        with pytest.raises(QueryError):
            window_slice.collect(ParameterSetting(0.3, 0.1))

    def test_empty_window(self):
        window_slice = WindowSlice(
            0, {}, generation_setting=ParameterSetting(0.0, 0.0)
        )
        assert window_slice.collect(ParameterSetting(0.5, 0.5)) == []
        assert window_slice.rule_count == 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
            min_size=2,
            max_size=25,
        ),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_collect_equals_filter_property(self, transactions, supp, conf):
        window_slice, scored, _ = build_slice(transactions)
        setting = ParameterSetting(supp, conf)
        assert window_slice.collect(setting) == brute_collect(scored, setting)
        assert window_slice.collect_bfs(setting) == brute_collect(scored, setting)


class TestStableRegion:
    def test_region_contains_its_setting(self):
        window_slice, _, _ = build_slice(TRANSACTIONS)
        setting = ParameterSetting(0.3, 0.6)
        region = window_slice.region_for(setting)
        assert region.contains(setting)

    def test_same_ruleset_anywhere_in_region(self):
        """The defining property (Definition 11): any setting inside the
        region produces the identical ruleset."""
        window_slice, scored, _ = build_slice(TRANSACTIONS)
        rng = random.Random(5)
        for _ in range(25):
            setting = ParameterSetting(rng.random(), rng.random())
            region = window_slice.region_for(setting)
            reference = window_slice.collect(setting)
            # Probe several points inside the region's half-open box.
            supp_hi = (
                float(region.cut.support) if region.cut else 1.0
            )
            conf_hi = (
                float(region.cut.confidence) if region.cut else 1.0
            )
            supp_lo = float(region.support_floor)
            conf_lo = float(region.confidence_floor)
            for alpha in (0.25, 0.75, 1.0):
                probe_supp = supp_lo + (supp_hi - supp_lo) * alpha
                probe_conf = conf_lo + (conf_hi - conf_lo) * alpha
                if probe_supp <= supp_lo or probe_conf <= conf_lo:
                    continue
                probe = ParameterSetting(min(probe_supp, 1.0), min(probe_conf, 1.0))
                assert window_slice.collect(probe) == reference

    def test_cut_location_on_grid(self):
        window_slice, _, _ = build_slice(TRANSACTIONS)
        region = window_slice.region_for(ParameterSetting(0.3, 0.4))
        assert region.cut is not None
        assert region.cut.support in window_slice.supports
        assert region.cut.confidence in window_slice.confidences

    def test_empty_region_above_all_locations(self):
        window_slice, _, _ = build_slice(TRANSACTIONS)
        region = window_slice.region_for(ParameterSetting(0.99, 0.99))
        assert region.is_empty
        assert region.ruleset_size == 0

    def test_ruleset_size_matches_collect(self):
        window_slice, _, _ = build_slice(TRANSACTIONS)
        for supp, conf in [(0.1, 0.2), (0.25, 0.5), (0.6, 0.3)]:
            setting = ParameterSetting(supp, conf)
            region = window_slice.region_for(setting)
            assert region.ruleset_size == len(window_slice.collect(setting))


class TestNeighborRegions:
    def test_looser_neighbors_grow_ruleset(self):
        window_slice, _, _ = build_slice(TRANSACTIONS)
        setting = ParameterSetting(0.3, 0.5)
        region = window_slice.region_for(setting)
        neighbors = window_slice.neighbor_regions(setting)
        for direction in ("looser_support", "looser_confidence"):
            if direction in neighbors:
                assert neighbors[direction].ruleset_size >= region.ruleset_size

    def test_tighter_neighbors_shrink_ruleset(self):
        window_slice, _, _ = build_slice(TRANSACTIONS)
        setting = ParameterSetting(0.2, 0.3)
        region = window_slice.region_for(setting)
        neighbors = window_slice.neighbor_regions(setting)
        for direction in ("tighter_support", "tighter_confidence"):
            if direction in neighbors:
                assert neighbors[direction].ruleset_size <= region.ruleset_size

    def test_no_looser_neighbor_at_space_edge(self):
        window_slice, _, _ = build_slice(TRANSACTIONS)
        # Below the smallest location on both axes: nothing looser exists.
        neighbors = window_slice.neighbor_regions(ParameterSetting(0.0, 0.0))
        assert "looser_support" not in neighbors
        assert "looser_confidence" not in neighbors

    def test_neighbors_step_exactly_one_rank(self):
        """Rank-native neighbors: each direction moves one grid step."""
        window_slice, _, _ = build_slice(TRANSACTIONS)
        setting = ParameterSetting(0.3, 0.5)
        si, ci = window_slice.region_ranks(setting)
        neighbors = window_slice.neighbor_regions(setting)
        expected = {
            "looser_support": (si - 1, ci),
            "tighter_support": (si + 1, ci),
            "looser_confidence": (si, ci - 1),
            "tighter_confidence": (si, ci + 1),
        }
        for direction, (nsi, nci) in expected.items():
            assert direction in neighbors
            assert neighbors[direction] == window_slice.region_at_ranks(nsi, nci)

    def test_neighbors_resolve_float_colliding_axis_values(self):
        """Adjacent axis values equal in float space stay distinct.

        The old implementation probed neighbors by round-tripping the
        axis value through a float setting, which cannot tell these two
        confidences apart; the rank-native construction can.
        """
        groups = {
            Location(Fraction(1, 2), Fraction(333333333333, 10**12)): [0],
            Location(Fraction(1, 2), Fraction(1, 3)): [1],
            Location(Fraction(3, 4), Fraction(1, 2)): [2],
        }
        window_slice = WindowSlice(
            0, groups, generation_setting=ParameterSetting(0.0, 0.0)
        )
        setting = ParameterSetting(0.5, 0.2)
        neighbors = window_slice.neighbor_regions(setting)
        tighter = neighbors["tighter_confidence"]
        assert tighter.cut is not None
        # One rank up from confidence rank 0 is exactly 1/3, not the
        # float-indistinguishable 333333333333/10**12 below it.
        assert tighter.cut.confidence == Fraction(1, 3)
        assert tighter.support_floor == Fraction(333333333333, 10**12) or (
            tighter.confidence_floor == Fraction(333333333333, 10**12)
        )

    def test_region_at_ranks_rejects_out_of_grid(self):
        window_slice, _, _ = build_slice(TRANSACTIONS)
        with pytest.raises(QueryError, match="cut ranks"):
            window_slice.region_at_ranks(-1, 0)
        with pytest.raises(QueryError, match="cut ranks"):
            window_slice.region_at_ranks(0, len(window_slice.confidences) + 1)


class TestItemIndex:
    def test_content_query_filters_by_item(self):
        window_slice, scored, catalog = build_slice(TRANSACTIONS, item_index=True)
        setting = ParameterSetting(0.2, 0.4)
        with_item = window_slice.collect_items(setting, [5])
        all_rules = window_slice.collect(setting)
        expected = [
            rid for rid in all_rules if 5 in catalog.get(rid).items
        ]
        assert with_item == expected

    def test_multiple_items_is_union(self):
        window_slice, scored, catalog = build_slice(TRANSACTIONS, item_index=True)
        setting = ParameterSetting(0.1, 0.2)
        both = set(window_slice.collect_items(setting, [1, 4]))
        only_1 = set(window_slice.collect_items(setting, [1]))
        only_4 = set(window_slice.collect_items(setting, [4]))
        assert both == only_1 | only_4

    def test_without_index_raises(self):
        window_slice, _, _ = build_slice(TRANSACTIONS, item_index=False)
        assert not window_slice.has_item_index
        with pytest.raises(QueryError, match="TARA-S"):
            window_slice.collect_items(ParameterSetting(0.1, 0.1), [1])

    def test_unknown_item_yields_empty(self):
        window_slice, _, _ = build_slice(TRANSACTIONS, item_index=True)
        assert window_slice.collect_items(ParameterSetting(0.1, 0.1), [999]) == []


class TestLocationsIterator:
    def test_every_rule_appears_exactly_once(self):
        window_slice, scored, _ = build_slice(TRANSACTIONS)
        seen = []
        for _, rule_ids in window_slice.locations():
            seen.extend(rule_ids)
        assert sorted(seen) == sorted(s.rule_id for s in scored)

    def test_locations_carry_exact_fractions(self):
        window_slice, scored, _ = build_slice(TRANSACTIONS)
        by_id = {s.rule_id: s for s in scored}
        for location, rule_ids in window_slice.locations():
            for rule_id in rule_ids:
                s = by_id[rule_id]
                assert location.support == Fraction(s.rule_count, s.window_size)
                assert location.confidence == Fraction(
                    s.rule_count, s.antecedent_count
                )


class TestRegionRulesetLookup:
    """collect() resolves through the memoized per-region ruleset."""

    def test_collect_matches_bfs_over_grid(self, small_kb):
        """Staircase scan and paper-literal BFS agree at every grid point."""
        for window in range(small_kb.window_count):
            window_slice = small_kb.slice(window)
            for min_support in (0.02, 0.03, 0.05, 0.08, 0.12):
                for min_confidence in (0.1, 0.3, 0.5, 0.7):
                    setting = ParameterSetting(min_support, min_confidence)
                    assert window_slice.collect(setting) == window_slice.collect_bfs(
                        setting
                    ), (window, setting)

    def test_region_ruleset_is_memoized(self, small_kb):
        window_slice = small_kb.slice(0)
        si, ci = window_slice.region_ranks(ParameterSetting(0.05, 0.3))
        first = window_slice.ruleset_for_region(si, ci)
        assert window_slice.ruleset_for_region(si, ci) is first

    def test_settings_in_one_region_share_the_memo(self, small_kb):
        window_slice = small_kb.slice(0)
        setting = ParameterSetting(0.05, 0.3)
        region = window_slice.region_for(setting)
        assert region.cut is not None
        nudged = ParameterSetting(
            float((region.support_floor + region.cut.support) / 2),
            float((region.confidence_floor + region.cut.confidence) / 2),
        )
        assert window_slice.region_ranks(nudged) == window_slice.region_ranks(setting)
        assert window_slice.collect(nudged) == window_slice.collect(setting)


def every_cell(window_slice):
    """Every cut-rank pair of a slice, one-past-end ranks included."""
    for si in range(len(window_slice.supports) + 1):
        for ci in range(len(window_slice.confidences) + 1):
            yield si, ci


class TestBoundedRegionMemo:
    def test_memo_holds_at_most_its_bound(self, monkeypatch):
        monkeypatch.setattr(regions, "_REGION_MEMO_ENTRIES", 4)
        window_slice, _, _ = build_slice(TRANSACTIONS)
        cells = list(every_cell(window_slice))
        assert len(cells) > 4
        for si, ci in cells:
            window_slice.ruleset_for_region(si, ci)
            assert len(window_slice._region_rulesets) <= 4

    def test_rulesets_equal_a_fresh_scan_and_bfs(self, small_kb, monkeypatch):
        monkeypatch.setattr(regions, "_REGION_MEMO_ENTRIES", 4)
        for window in range(small_kb.window_count):
            window_slice = small_kb.slice(window)
            # Twice over the grid: the second pass reads refilled memos.
            for _ in range(2):
                for si, ci in every_cell(window_slice):
                    memoized = window_slice.ruleset_for_region(si, ci)
                    scanned = sorted(
                        rule_id
                        for _, rule_ids in window_slice._iter_dominated_rules(
                            si, ci
                        )
                        for rule_id in rule_ids
                    )
                    assert list(memoized) == scanned, (window, si, ci)
                    if si < len(window_slice.supports) and ci < len(
                        window_slice.confidences
                    ):
                        setting = ParameterSetting(
                            float(window_slice.supports[si]),
                            float(window_slice.confidences[ci]),
                        )
                        assert window_slice.region_ranks(setting) == (si, ci)
                        assert window_slice.collect_bfs(setting) == scanned

    def test_region_sizes_are_counted_not_collected(self, small_kb):
        for window in range(small_kb.window_count):
            window_slice = small_kb.slice(window)
            for si, ci in every_cell(window_slice):
                memo_before = dict(window_slice._region_rulesets)
                region = window_slice.region_at_ranks(si, ci)
                assert window_slice._region_rulesets == memo_before
                assert region.ruleset_size == len(
                    window_slice.ruleset_for_region(si, ci)
                ), (window, si, ci)
