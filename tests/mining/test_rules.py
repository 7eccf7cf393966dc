"""Rules, the catalog, and ap-genrules derivation."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import UnknownRuleError, ValidationError
from repro.data.items import ItemVocabulary
from repro.mining.apriori import mine_apriori
from repro.mining.rules import Rule, RuleCatalog, derive_rules


class TestRule:
    def test_valid_rule(self):
        rule = Rule(antecedent=(1, 2), consequent=(3,))
        assert rule.items == (1, 2, 3)

    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValidationError, match="overlap"):
            Rule(antecedent=(1, 2), consequent=(2, 3))

    def test_empty_side_rejected(self):
        with pytest.raises(ValidationError):
            Rule(antecedent=(), consequent=(1,))
        with pytest.raises(ValidationError):
            Rule(antecedent=(1,), consequent=())

    def test_format_with_ids(self):
        assert Rule((1,), (2,)).format() == "{1} => {2}"

    def test_format_with_vocabulary(self):
        vocab = ItemVocabulary(["milk", "bread"])
        assert Rule((0,), (1,)).format(vocab) == "{milk} => {bread}"


class TestRuleCatalog:
    def test_intern_assigns_dense_ids(self):
        catalog = RuleCatalog()
        first = catalog.intern(Rule((1,), (2,)))
        second = catalog.intern(Rule((2,), (1,)))
        assert (first, second) == (0, 1)
        assert len(catalog) == 2

    def test_intern_is_idempotent(self):
        catalog = RuleCatalog()
        rule = Rule((1,), (2,))
        assert catalog.intern(rule) == catalog.intern(rule)
        assert len(catalog) == 1

    def test_get_roundtrip(self):
        catalog = RuleCatalog()
        rule = Rule((1, 5), (2,))
        assert catalog.get(catalog.intern(rule)) == rule

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownRuleError):
            RuleCatalog().get(0)

    def test_id_of_unknown_raises(self):
        with pytest.raises(UnknownRuleError):
            RuleCatalog().id_of(Rule((1,), (2,)))

    def test_find_normalizes_input(self):
        catalog = RuleCatalog()
        rule_id = catalog.intern(Rule((1, 2), (3,)))
        assert catalog.find([2, 1], [3]) == rule_id
        assert catalog.find([9], [3]) is None

    def test_iteration_in_id_order(self):
        catalog = RuleCatalog()
        rules = [Rule((i,), (i + 1,)) for i in range(0, 10, 2)]
        for rule in rules:
            catalog.intern(rule)
        assert list(catalog) == rules


class TestCatalogViews:
    """Clones share one rule list; each reads it through its own bound."""

    def test_clone_hides_what_a_later_view_interns(self):
        older = RuleCatalog()
        older.intern(Rule((1,), (2,)))
        newer = older.clone()
        rule_id = newer.intern(Rule((3,), (4,)))
        assert newer._rules is older._rules
        assert (len(older), len(newer)) == (1, 2)
        assert list(older) == [Rule((1,), (2,))]
        assert older.find([3], [4]) is None
        with pytest.raises(UnknownRuleError):
            older.get(rule_id)
        with pytest.raises(UnknownRuleError):
            older.id_of(Rule((3,), (4,)))

    def test_interning_through_an_older_view_raises(self):
        older = RuleCatalog()
        older.clone().intern(Rule((1,), (2,)))
        with pytest.raises(ValidationError, match="later view"):
            older.intern(Rule((5,), (6,)))
        with pytest.raises(ValidationError, match="later view"):
            older.intern_parts((1,), (2,))

    def test_rollback_forgets_rules_and_memoized_ids(self):
        older = RuleCatalog()
        older.intern(Rule((1,), (2,)))
        newer = older.clone()
        derive_rules(mine_apriori([(3, 4), (3, 4), (4, 5)], 0.3), 0.0, catalog=newer)
        assert len(newer) > 1
        older.rollback()
        assert len(older._rules) == 1
        assert older.find([3], [4]) is None
        assert all(
            split[3] is None
            for plan in older._split_plans.values()
            for level in plan
            for split in level
        )
        retry = older.clone()
        scored = derive_rules(
            mine_apriori([(3, 4), (3, 4), (4, 5)], 0.3), 0.0, catalog=retry
        )
        assert [s.rule_id for s in scored] == list(range(1, len(retry)))


def brute_force_rules(transactions, min_support, min_confidence):
    """Directly enumerate all rules from brute-force frequent itemsets."""
    mined = mine_apriori(transactions, min_support)
    expected = set()
    for itemset, count in mined.items():
        if len(itemset) < 2:
            continue
        for consequent_size in range(1, len(itemset)):
            for consequent in combinations(itemset, consequent_size):
                antecedent = tuple(i for i in itemset if i not in consequent)
                antecedent_count = mined.count(antecedent)
                if antecedent_count and count / antecedent_count >= min_confidence:
                    expected.add((antecedent, consequent))
    return expected


class TestDeriveRules:
    TRANSACTIONS = [
        (1, 3, 4),
        (2, 3, 5),
        (1, 2, 3, 5),
        (2, 5),
        (1, 2, 3, 5),
    ]

    def test_matches_brute_force(self):
        scored = derive_rules(mine_apriori(self.TRANSACTIONS, 0.4), 0.6)
        derived = {(s.rule.antecedent, s.rule.consequent) for s in scored}
        assert derived == brute_force_rules(self.TRANSACTIONS, 0.4, 0.6)

    def test_confidence_values_exact(self):
        scored = derive_rules(mine_apriori(self.TRANSACTIONS, 0.4), 0.0)
        by_key = {(s.rule.antecedent, s.rule.consequent): s for s in scored}
        # {2,5} appears 4 times, {2} 4 times: conf({2}=>{5}) = 1.0
        assert by_key[((2,), (5,))].confidence == pytest.approx(1.0)
        # {3} appears 4 times, {2,3,5} 3 times: conf({3}=>{2,5}) = 0.75
        assert by_key[((3,), (2, 5))].confidence == pytest.approx(0.75)
        assert by_key[((3,), (2, 5))].support == pytest.approx(0.6)

    def test_threshold_one_keeps_only_certain_rules(self):
        scored = derive_rules(mine_apriori(self.TRANSACTIONS, 0.4), 1.0)
        assert all(s.confidence == 1.0 for s in scored)
        keys = {(s.rule.antecedent, s.rule.consequent) for s in scored}
        assert ((2,), (5,)) in keys

    def test_no_rules_from_singletons_only(self):
        scored = derive_rules(mine_apriori([(1,), (2,)], 0.0), 0.0)
        assert scored == []

    def test_results_sorted_by_rule_id(self):
        scored = derive_rules(mine_apriori(self.TRANSACTIONS, 0.4), 0.2)
        ids = [s.rule_id for s in scored]
        assert ids == sorted(ids)

    def test_shared_catalog_reuses_ids(self):
        catalog = RuleCatalog()
        first = derive_rules(mine_apriori(self.TRANSACTIONS, 0.4), 0.5, catalog=catalog)
        second = derive_rules(
            mine_apriori(self.TRANSACTIONS, 0.4), 0.5, catalog=catalog
        )
        assert {s.rule_id for s in first} == {s.rule_id for s in second}

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValidationError):
            derive_rules(mine_apriori(self.TRANSACTIONS, 0.4), 1.5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
            min_size=1,
            max_size=20,
        ),
        st.sampled_from([0.0, 0.2, 0.5]),
        st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    )
    def test_matches_brute_force_property(self, transactions, min_support, min_confidence):
        scored = derive_rules(
            mine_apriori(transactions, min_support), min_confidence
        )
        derived = {(s.rule.antecedent, s.rule.consequent) for s in scored}
        assert derived == brute_force_rules(transactions, min_support, min_confidence)


class TestSplitPlanMemo:
    """The catalog-level derivation memo replays ap-genrules exactly."""

    TRANSACTIONS = [
        (1, 2, 3, 4),
        (1, 2, 3),
        (1, 2, 4),
        (2, 3, 4),
        (1, 3),
        (1, 2, 3, 4),
    ]

    def test_replay_windows_bit_identical_to_fresh_catalogs(self):
        """A shared catalog's plan replay = fresh ap-genrules per window."""
        windows = [self.TRANSACTIONS, self.TRANSACTIONS[::-1], self.TRANSACTIONS[:4]]
        shared = RuleCatalog()
        replayed = [
            derive_rules(mine_apriori(w, 0.2), 0.4, catalog=shared) for w in windows
        ]
        for window, scored in zip(windows, replayed):
            fresh = derive_rules(mine_apriori(window, 0.2), 0.4)
            assert [
                (s.rule.antecedent, s.rule.consequent, s.rule_count, s.antecedent_count)
                for s in scored
            ] == [
                (s.rule.antecedent, s.rule.consequent, s.rule_count, s.antecedent_count)
                for s in fresh
            ]

    def test_interned_rules_are_canonical_objects(self):
        """Re-deriving returns the catalog's Rule instance, not a copy."""
        catalog = RuleCatalog()
        first = derive_rules(mine_apriori(self.TRANSACTIONS, 0.2), 0.4, catalog=catalog)
        second = derive_rules(
            mine_apriori(self.TRANSACTIONS, 0.2), 0.4, catalog=catalog
        )
        by_id = {s.rule_id: s.rule for s in first}
        for s in second:
            assert s.rule is by_id[s.rule_id]
            assert s.rule is catalog.get(s.rule_id)

    def test_plan_path_equals_levelwise_fallback(self, monkeypatch):
        """Forcing the plan-free fallback derives the identical ruleset."""
        import repro.mining.rules as rules_module

        planned = derive_rules(mine_apriori(self.TRANSACTIONS, 0.2), 0.4)
        monkeypatch.setattr(rules_module, "PLAN_SIZE_CAP", 1)
        fallback = derive_rules(mine_apriori(self.TRANSACTIONS, 0.2), 0.4)
        assert planned == fallback

    def test_intern_parts_validates_on_first_intern(self):
        catalog = RuleCatalog()
        with pytest.raises(ValidationError):
            catalog.intern_parts((1, 2), (2, 3))
        with pytest.raises(ValidationError):
            catalog.intern_parts((), (1,))

    def test_intern_parts_matches_intern(self):
        catalog = RuleCatalog()
        rule_id, rule = catalog.intern_parts((1,), (2,))
        assert catalog.intern(Rule((1,), (2,))) == rule_id
        assert catalog.get(rule_id) is rule
