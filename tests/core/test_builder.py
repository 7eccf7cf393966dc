"""Offline knowledge-base construction."""

import pytest

from repro.common.errors import UnknownWindowError, ValidationError
from repro.core.builder import (
    PHASE_ARCHIVE,
    PHASE_EPS,
    PHASE_ITEMSETS,
    PHASE_RULES,
    GenerationConfig,
    TaraBuilder,
    build_knowledge_base,
)
from repro.bench.offline import knowledge_base_fingerprint
from repro.data import TransactionDatabase, WindowedDatabase
from repro.data.periods import PeriodSpec
from repro.datagen import retail_dataset
from repro.mining.apriori import mine_apriori
from repro.mining.rules import derive_rules


class TestGenerationConfig:
    def test_valid(self):
        config = GenerationConfig(0.01, 0.1)
        assert config.miner == "vertical"
        assert config.setting.min_support == 0.01

    def test_unknown_miner_rejected(self):
        with pytest.raises(ValidationError, match="unknown miner"):
            GenerationConfig(0.01, 0.1, miner="magic")

    def test_bad_threshold_rejected(self):
        with pytest.raises(Exception):
            GenerationConfig(-0.1, 0.1)

    @pytest.mark.parametrize(
        "miner", ["apriori", "eclat", "fpgrowth", "hmine", "vertical"]
    )
    def test_all_miners_accepted(self, miner):
        assert GenerationConfig(0.01, 0.1, miner=miner).miner == miner


class TestBuild:
    def test_window_count_and_sizes(self, small_windows, small_kb):
        assert small_kb.window_count == small_windows.window_count
        assert small_kb.window_sizes == [
            small_windows.window_size(i)
            for i in range(small_windows.window_count)
        ]

    def test_archive_matches_direct_mining(self, small_windows, small_kb):
        """Every archived (rule, window) entry reproduces direct counts."""
        config = small_kb.config
        window = 2
        scored = derive_rules(
            mine_apriori(small_windows.window(window), config.min_support),
            config.min_confidence,
        )
        for s in scored:
            rule_id = small_kb.catalog.find(s.rule.antecedent, s.rule.consequent)
            assert rule_id is not None
            measure = small_kb.archive.measure_at(rule_id, window)
            assert measure is not None
            assert measure.rule_count == s.rule_count
            assert measure.antecedent_count == s.antecedent_count

    def test_rules_in_window_matches_slice(self, small_kb):
        for window in range(small_kb.window_count):
            via_slice = small_kb.slice(window).collect(small_kb.config.setting)
            assert via_slice == small_kb.rules_in_window[window]

    def test_timer_has_all_four_phases(self, small_kb):
        breakdown = small_kb.timer.breakdown()
        for phase in (PHASE_ITEMSETS, PHASE_RULES, PHASE_ARCHIVE, PHASE_EPS):
            assert phase in breakdown
            assert breakdown[phase] > 0.0
        assert small_kb.timer.counts[PHASE_ITEMSETS] == small_kb.window_count

    def test_slice_out_of_range(self, small_kb):
        with pytest.raises(UnknownWindowError):
            small_kb.slice(small_kb.window_count)

    def test_candidate_rules_union(self, small_kb):
        all_windows = small_kb.candidate_rules(small_kb.all_windows())
        single = small_kb.candidate_rules(PeriodSpec([0]))
        assert set(single) <= set(all_windows)
        assert all_windows == sorted(set(all_windows))

    def test_candidate_rules_unknown_window(self, small_kb):
        with pytest.raises(UnknownWindowError):
            small_kb.candidate_rules(PeriodSpec([99]))

    def test_archive_sealed_after_build(self, small_kb):
        # Sealed archive still serves reads.
        some_rule = next(iter(small_kb.archive.rule_ids()))
        assert small_kb.archive.series(some_rule)


class TestMinerEquivalence:
    def test_all_miners_build_identical_knowledge(self, small_windows):
        """The builder's miner knob must not change the knowledge content."""
        references = None
        for miner in ("apriori", "eclat", "fpgrowth", "hmine", "vertical"):
            config = GenerationConfig(0.03, 0.2, miner=miner)
            kb = build_knowledge_base(small_windows, config)
            content = [
                sorted(
                    (kb.catalog.get(rid).antecedent, kb.catalog.get(rid).consequent)
                    for rid in kb.rules_in_window[w]
                )
                for w in range(kb.window_count)
            ]
            if references is None:
                references = content
            else:
                assert content == references, miner

    def test_all_miners_build_bit_identical_knowledge(self, small_windows):
        """Stronger: rule ids, archive bytes, and EPS axes are identical
        whichever miner ran — the cross-miner fingerprint gate of
        ``repro bench``, pinned here on the small fixture."""
        fingerprints = {
            miner: knowledge_base_fingerprint(
                build_knowledge_base(
                    small_windows, GenerationConfig(0.03, 0.2, miner=miner)
                )
            )
            for miner in ("apriori", "eclat", "fpgrowth", "hmine", "vertical")
        }
        assert len(set(fingerprints.values())) == 1, fingerprints


class TestIncrementalEntryPoint:
    def test_add_window_grows_kb(self, small_windows):
        config = GenerationConfig(0.02, 0.1)
        builder = TaraBuilder(config)
        kb = build_knowledge_base(small_windows, config)
        partial = TaraBuilder(config).build(small_windows)
        assert partial.window_count == kb.window_count

    def test_item_index_only_when_requested(self, small_windows):
        config = GenerationConfig(0.05, 0.2, build_item_index=False)
        kb = build_knowledge_base(small_windows, config)
        assert not kb.slice(0).has_item_index
        config2 = GenerationConfig(0.05, 0.2, build_item_index=True)
        kb2 = build_knowledge_base(small_windows, config2)
        assert kb2.slice(0).has_item_index

    def test_max_itemset_size_respected(self, small_windows):
        config = GenerationConfig(0.02, 0.0, max_itemset_size=2)
        kb = build_knowledge_base(small_windows, config)
        for rule in kb.catalog:
            assert len(rule.items) <= 2


class TestEdgeWindows:
    def test_single_window(self):
        database = retail_dataset(transaction_count=120, seed=3)
        windows = WindowedDatabase.partition_by_count(database, 1)
        config = GenerationConfig(min_support=0.02, min_confidence=0.2)
        kb = build_knowledge_base(windows, config)
        assert kb.window_count == 1
        assert knowledge_base_fingerprint(kb) == knowledge_base_fingerprint(
            build_knowledge_base(windows, config)
        )

    def test_empty_middle_window(self):
        # A timestamp gap leaves window 1 of the time partition empty;
        # an empty window is legal and must survive the build.
        itemlists = [[0, 1], [0, 1], [1, 2], [0, 2], [0, 1], [1, 2]]
        times = [0, 1, 2, 20, 21, 22]  # width 10 -> windows 0, 1 (empty), 2
        database = TransactionDatabase.from_itemlists(itemlists, times)
        windows = WindowedDatabase.partition_by_time(database, window_width=10)
        assert windows.window_count == 3
        assert windows.window_size(1) == 0
        config = GenerationConfig(min_support=0.3, min_confidence=0.3)
        kb = build_knowledge_base(windows, config)
        assert kb.window_count == 3
        assert kb.rules_in_window[1] == []
        assert knowledge_base_fingerprint(kb) == knowledge_base_fingerprint(
            build_knowledge_base(windows, config)
        )
