"""Incremental publication must equal the from-scratch build."""

import gc
import weakref

import pytest

from repro.bench.offline import knowledge_base_fingerprint
from repro.common.errors import (
    BuildInFlightError,
    UnknownRuleError,
    ValidationError,
)
from repro.core import GenerationConfig, IncrementalTara, build_knowledge_base
from repro.core.builder import TaraBuilder
from repro.core.regions import ParameterSetting
from repro.data import WindowedDatabase
from repro.datagen import retail_dataset


@pytest.fixture(scope="module")
def config() -> GenerationConfig:
    return GenerationConfig(0.02, 0.1)


class TestEquivalenceWithBatchBuild:
    def test_same_rulesets_per_window(self, small_windows, config):
        batch_kb = build_knowledge_base(small_windows, config)
        incremental = IncrementalTara(config)
        for index in range(small_windows.window_count):
            incremental.publish([small_windows.window(index)])
        inc_kb = incremental.knowledge_base
        assert inc_kb.window_count == batch_kb.window_count
        setting = ParameterSetting(0.05, 0.3)
        for window in range(batch_kb.window_count):
            batch_rules = {
                (batch_kb.catalog.get(r).antecedent, batch_kb.catalog.get(r).consequent)
                for r in batch_kb.slice(window).collect(setting)
            }
            inc_rules = {
                (inc_kb.catalog.get(r).antecedent, inc_kb.catalog.get(r).consequent)
                for r in inc_kb.slice(window).collect(setting)
            }
            assert batch_rules == inc_rules

    def test_same_archive_content(self, small_windows, config):
        batch_kb = build_knowledge_base(small_windows, config)
        incremental = IncrementalTara(config)
        incremental.publish(
            [
                small_windows.window(i)
                for i in range(small_windows.window_count)
            ]
        )
        inc_kb = incremental.knowledge_base
        for rule in batch_kb.catalog:
            batch_id = batch_kb.catalog.id_of(rule)
            inc_id = inc_kb.catalog.find(rule.antecedent, rule.consequent)
            assert inc_id is not None
            batch_series = [
                (m.window, m.rule_count, m.antecedent_count)
                for m in batch_kb.archive.series(batch_id)
            ]
            inc_series = [
                (m.window, m.rule_count, m.antecedent_count)
                for m in inc_kb.archive.series(inc_id)
            ]
            assert batch_series == inc_series


class TestIncrementalBehaviour:
    def test_explorer_is_always_current(self, small_windows, config):
        incremental = IncrementalTara(config)
        incremental.publish([small_windows.window(0)])
        assert incremental.explorer().knowledge_base.window_count == 1
        incremental.publish([small_windows.window(1)])
        assert incremental.explorer().knowledge_base.window_count == 2

    def test_window_count_tracks_batches(self, small_windows, config):
        incremental = IncrementalTara(config)
        assert incremental.window_count == 0
        snapshot = incremental.publish(
            [small_windows.window(i) for i in range(3)]
        )
        assert incremental.window_count == 3
        assert snapshot.epoch == 3
        assert [s.window for s in snapshot.knowledge_base.slices] == [0, 1, 2]

    def test_empty_publish_rejected(self, config):
        with pytest.raises(ValidationError):
            IncrementalTara(config).publish([])

    def test_empty_batch_rejected(self, config):
        with pytest.raises(ValidationError):
            IncrementalTara(config).publish([[]])

    def test_unsorted_batch_rejected(self, small_windows, config):
        incremental = IncrementalTara(config)
        incremental.publish([small_windows.window(0)])
        shuffled = list(reversed(small_windows.window(1)))
        with pytest.raises(ValidationError, match="time-sorted"):
            incremental.publish([shuffled])

    def test_failed_publish_keeps_the_current_snapshot(
        self, small_windows, config
    ):
        incremental = IncrementalTara(config)
        incremental.publish([small_windows.window(0)])
        before = incremental.current
        with pytest.raises(ValidationError):
            incremental.publish([[]])
        assert incremental.current is before
        assert not incremental.snapshot_stats()["building"]
        # The publisher recovers: the next valid publish lands normally.
        incremental.publish([small_windows.window(1)])
        assert incremental.window_count == 2

    def test_only_new_window_is_mined(self, small_windows, config):
        """The per-phase counters show one mining run per published batch."""
        from repro.core.builder import PHASE_ITEMSETS

        incremental = IncrementalTara(config)
        incremental.publish([small_windows.window(0)])
        timer = incremental.knowledge_base.timer
        assert timer.counts[PHASE_ITEMSETS] == 1
        incremental.publish([small_windows.window(1)])
        assert timer.counts[PHASE_ITEMSETS] == 2


class TestPublishSnapshots:
    def test_publish_returns_the_installed_snapshot(
        self, small_windows, config
    ):
        incremental = IncrementalTara(config)
        first = incremental.publish([small_windows.window(0)])
        assert first is incremental.current
        second = incremental.publish([small_windows.window(1)])
        assert second is incremental.current
        assert (first.epoch, second.epoch) == (1, 2)

    def test_predecessor_kb_is_never_mutated(self, small_windows, config):
        incremental = IncrementalTara(config)
        with incremental.snapshot() as genesis:
            assert genesis.epoch == 0
            incremental.publish([small_windows.window(0)])
            # The pinned predecessor still sees zero windows: the
            # publish built against a private clone.
            assert genesis.knowledge_base.window_count == 0
        assert incremental.window_count == 1

    def test_build_in_flight_is_conflict(
        self, small_windows, config, monkeypatch
    ):
        import repro.core.incremental as incremental_module

        incremental = IncrementalTara(config)
        original = incremental_module.TaraBuilder.add_windows

        def reentrant_add(builder, kb, batches):
            with pytest.raises(BuildInFlightError, match="in flight"):
                incremental.publish([small_windows.window(1)])
            return original(builder, kb, batches)

        monkeypatch.setattr(
            incremental_module.TaraBuilder, "add_windows", reentrant_add
        )
        incremental.publish([small_windows.window(0)])
        assert incremental.window_count == 1


class TestReferenceCountedTeardown:
    """What a publisher drops must go without a cyclic collection.

    The serving tier freezes its heap, and a frozen object is never
    cycle-collected, so these tests run with the collector disabled.
    """

    def test_dropped_publisher_frees_its_knowledge_base(
        self, small_windows, config
    ):
        gc.disable()
        incremental = IncrementalTara(config)
        incremental.publish([small_windows.window(0)])
        incremental.publish([small_windows.window(1)])
        incremental.explorer()  # a retained explorer must not pin it
        current = weakref.ref(incremental.knowledge_base)
        assert incremental.current.refs == 1  # only the standing pin
        del incremental
        assert current() is None

    def test_retirements_are_still_counted(self, small_windows, config):
        incremental = IncrementalTara(config)
        incremental.publish([small_windows.window(0)])
        with incremental.snapshot():
            incremental.publish([small_windows.window(1)])
            assert incremental.snapshot_stats()["retired_snapshots"] == 1
        assert incremental.snapshot_stats()["retired_snapshots"] == 2

    def test_publish_never_freezes_the_heap(self, small_windows, config):
        gc.unfreeze()
        incremental = IncrementalTara(config)
        incremental.publish([small_windows.window(0)])
        assert gc.get_freeze_count() == 0


@pytest.fixture(scope="module")
def retail_windows():
    """Four windows of 500 retail transactions: later windows keep
    introducing rules the earlier ones never derived."""
    database = retail_dataset(transaction_count=2000, seed=11)
    return WindowedDatabase.partition_by_count(database, 4)


RETAIL = GenerationConfig(0.01, 0.3)


class TestFailedPublish:
    def test_failed_publish_leaves_no_interned_rules_behind(
        self, retail_windows
    ):
        """A publish that raises after mining must not wedge the next.

        The discarded successor interned thousands of new rules into
        the catalog it shares with the predecessor; the retry must get
        the same ids a from-scratch build assigns.
        """
        incremental = IncrementalTara(RETAIL)
        incremental.publish([retail_windows.window(0), retail_windows.window(1)])
        before = len(incremental.knowledge_base.catalog)
        builder = incremental._builder
        interned = []

        def add_window_then_fail(knowledge_base, batch):
            TaraBuilder.add_window(builder, knowledge_base, batch)
            interned.append(len(knowledge_base.catalog) - before)
            raise MemoryError("injected after the window was derived")

        builder.add_window = add_window_then_fail  # instance shadow, test-only
        with pytest.raises(MemoryError):
            incremental.publish([retail_windows.window(2)])
        del builder.add_window
        assert interned[0] > 0
        assert len(incremental.knowledge_base.catalog) == before
        assert not incremental.snapshot_stats()["building"]

        incremental.publish([retail_windows.window(2)])
        incremental.publish([retail_windows.window(3)])
        assert knowledge_base_fingerprint(
            incremental.knowledge_base
        ) == knowledge_base_fingerprint(
            build_knowledge_base(retail_windows, RETAIL)
        )


class TestPublishIsODelta:
    def test_successor_shares_every_earlier_window(self, retail_windows):
        """A publish copies O(windows) references and O(new window)
        entries; every earlier window's column, slice and id list and
        the catalog's rule list and key table are the predecessor's
        own objects."""
        incremental = IncrementalTara(RETAIL)
        incremental.publish([retail_windows.window(0), retail_windows.window(1)])
        predecessor = incremental.knowledge_base
        incremental.publish([retail_windows.window(2)])
        successor = incremental.knowledge_base

        old, new = predecessor.archive, successor.archive
        for window in range(predecessor.window_count):
            assert new._columns[window] is old._columns[window]
            assert successor.slices[window] is predecessor.slices[window]
            assert (
                successor.rules_in_window[window]
                is predecessor.rules_in_window[window]
            )
        assert successor.catalog._rules is predecessor.catalog._rules
        assert successor.catalog._rule_to_id is predecessor.catalog._rule_to_id
        # The only entries the successor owns are the new window's.
        shared = {id(column) for column in old._columns}
        owned = [c for c in new._columns if id(c) not in shared]
        assert len(owned) == 1
        assert sum(map(len, owned)) == len(successor.rules_in_window[2])
        # The predecessor still reads through its own bound.
        assert len(predecessor.catalog) < len(successor.catalog)
        newest = len(successor.catalog) - 1
        with pytest.raises(UnknownRuleError):
            predecessor.catalog.get(newest)
        rule = successor.catalog.get(newest)
        assert predecessor.catalog.find(rule.antecedent, rule.consequent) is None
