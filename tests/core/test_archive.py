"""TAR Archive: recording, sealing, decoding, roll-up, storage accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    UnknownRuleError,
    UnknownWindowError,
    ValidationError,
)
from repro.core import GenerationConfig, build_knowledge_base
from repro.core.archive import TarArchive, _decode_series, _encode_series
from repro.data import TransactionDatabase, WindowedDatabase
from repro.data.periods import PeriodSpec
from repro.mining.rules import Rule, ScoredRule
from tests.conftest import random_itemlists


def scored(rule_id, rule_count, antecedent_count, window_size, consequent_count=None):
    if consequent_count is None:
        consequent_count = min(window_size, 2 * rule_count + 1)
    return ScoredRule(
        rule_id=rule_id,
        rule=Rule((1,), (2,)),
        support=rule_count / window_size,
        confidence=rule_count / antecedent_count,
        rule_count=rule_count,
        antecedent_count=antecedent_count,
        window_size=window_size,
        consequent_count=consequent_count,
    )


@pytest.fixture
def archive() -> TarArchive:
    """Three windows; rule 0 in all, rule 1 in windows 0 and 2."""
    archive = TarArchive()
    archive.begin_window(100, 3)
    archive.record(0, [scored(0, 10, 20, 100), scored(1, 5, 10, 100)])
    archive.begin_window(200, 5)
    archive.record(1, [scored(0, 30, 40, 200)])
    archive.begin_window(100, 3)
    archive.record(2, [scored(0, 12, 24, 100), scored(1, 8, 8, 100)])
    return archive


class TestRecording:
    def test_window_bookkeeping(self, archive):
        assert archive.window_count == 3
        assert archive.window_size(1) == 200
        assert archive.missing_count_bound(2) == 3

    def test_record_into_stale_window_rejected(self, archive):
        with pytest.raises(UnknownWindowError):
            archive.record(0, [scored(9, 1, 1, 100)])

    def test_mismatched_window_size_rejected(self):
        archive = TarArchive()
        archive.begin_window(50, 2)
        with pytest.raises(ValidationError, match="window size"):
            archive.record(0, [scored(0, 1, 1, 99)])

    def test_double_record_same_rule_same_window_rejected(self):
        archive = TarArchive()
        archive.begin_window(50, 2)
        archive.record(0, [scored(0, 1, 1, 50)])
        with pytest.raises(ValidationError, match="already recorded"):
            archive.record(0, [scored(0, 2, 2, 50)])

    def test_negative_window_size_rejected(self):
        with pytest.raises(ValidationError):
            TarArchive().begin_window(-1, 0)


class TestReads:
    def test_series_roundtrip(self, archive):
        series = archive.series(0)
        assert [(m.window, m.rule_count, m.antecedent_count) for m in series] == [
            (0, 10, 20),
            (1, 30, 40),
            (2, 12, 24),
        ]
        assert series[0].support == pytest.approx(0.1)
        assert series[0].confidence == pytest.approx(0.5)
        assert series[1].window_size == 200

    def test_measure_at_present_window(self, archive):
        measure = archive.measure_at(1, 2)
        assert measure is not None
        assert measure.confidence == pytest.approx(1.0)

    def test_measure_at_absent_window_is_none(self, archive):
        assert archive.measure_at(1, 1) is None

    def test_measure_at_unknown_window_raises(self, archive):
        with pytest.raises(UnknownWindowError):
            archive.measure_at(0, 7)

    def test_unknown_rule_raises(self, archive):
        with pytest.raises(UnknownRuleError):
            archive.series(42)

    def test_windows_of(self, archive):
        assert archive.windows_of(0) == (0, 1, 2)
        assert archive.windows_of(1) == (0, 2)

    def test_contains_and_len(self, archive):
        assert 0 in archive and 1 in archive and 42 not in archive
        assert len(archive) == 2
        assert sorted(archive.rule_ids()) == [0, 1]


@pytest.fixture(scope="module")
def sixteen_window_archive() -> TarArchive:
    """The eager archive of a 16-window build."""
    itemlists = random_itemlists(seed=161, count=1600, item_count=12, max_len=5)
    windows = WindowedDatabase.partition_by_count(
        TransactionDatabase.from_itemlists(itemlists), 16
    )
    config = GenerationConfig(min_support=0.05, min_confidence=0.2)
    return build_knowledge_base(windows, config).archive


class TestMeasureAtReadsOneColumn:
    def test_equals_the_series_for_every_rule_and_window(
        self, sixteen_window_archive
    ):
        archive = sixteen_window_archive
        assert archive.window_count >= 16
        checked = 0
        for rule_id in archive.rule_ids():
            by_window = {m.window: m for m in archive.series(rule_id)}
            for window in range(archive.window_count):
                assert archive.measure_at(rule_id, window) == by_window.get(window)
                checked += 1
        assert checked > 1000

    def test_a_hit_does_not_gather_the_series(self, sixteen_window_archive):
        archive = sixteen_window_archive
        gathered = []

        def counting_entries(rule_id):
            gathered.append(rule_id)
            return TarArchive._entries(archive, rule_id)

        archive._entries = counting_entries
        try:
            hits = 0
            for window in range(archive.window_count):
                for row in archive.window_entries(window):
                    assert archive.measure_at(row[0], window) is not None
                    hits += 1
        finally:
            del archive._entries
        assert hits > 0
        assert gathered == []

    def test_rule_archived_nowhere_raises(self, sixteen_window_archive):
        unknown = max(sixteen_window_archive.rule_ids()) + 1
        with pytest.raises(UnknownRuleError):
            sixteen_window_archive.measure_at(unknown, 3)


class TestSealing:
    def test_reads_identical_after_seal(self, archive):
        before = {rid: archive.series(rid) for rid in archive.rule_ids()}
        archive.seal()
        after = {rid: archive.series(rid) for rid in archive.rule_ids()}
        assert before == after

    def test_can_append_after_seal(self, archive):
        archive.seal()
        archive.begin_window(100, 3)
        archive.record(3, [scored(0, 7, 14, 100)])
        assert archive.windows_of(0) == (0, 1, 2, 3)

    def test_encoded_size_consistent_before_and_after_seal(self, archive):
        staged_estimate = archive.encoded_size_bytes()
        archive.seal()
        assert archive.encoded_size_bytes() == staged_estimate

    def test_encoding_compresses_vs_uncompressed(self, archive):
        assert archive.encoded_size_bytes() < archive.uncompressed_size_bytes()

    def test_entry_count(self, archive):
        assert archive.entry_count() == 5
        archive.seal()
        assert archive.entry_count() == 5


class TestCodec:
    def test_series_roundtrip_known(self):
        series = [(0, 10, 20, 15), (3, 8, 30, 12), (4, 9, 9, 9)]
        assert _decode_series(_encode_series(series)) == series

    def test_empty_series(self):
        assert _decode_series(_encode_series([])) == []

    def test_stable_series_is_tiny(self):
        # A rule with identical counts across 10 consecutive windows:
        # after the first entry every delta is (1, 0, 0, 0) = 4 bytes.
        series = [(w, 50, 100, 80) for w in range(10)]
        blob = _encode_series(series)
        assert len(blob) <= 5 + 9 * 4

    def test_antecedent_below_rule_count_rejected(self):
        with pytest.raises(Exception):
            _encode_series([(0, 5, 3, 5)])

    def test_consequent_below_rule_count_rejected(self):
        with pytest.raises(Exception):
            _encode_series([(0, 5, 5, 3)])

    def test_non_increasing_windows_rejected(self):
        with pytest.raises(Exception):
            _encode_series([(1, 5, 5, 5), (1, 6, 6, 6)])

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),  # window gaps
                st.integers(min_value=0, max_value=10_000),  # rule counts
                st.integers(min_value=0, max_value=10_000),  # antecedent margins
                st.integers(min_value=0, max_value=10_000),  # consequent margins
            ),
            max_size=30,
        )
    )
    def test_roundtrip_property(self, quads):
        window = -1
        series = []
        for gap, rule_count, margin, consequent_margin in quads:
            window += gap
            series.append(
                (window, rule_count, rule_count + margin,
                 rule_count + consequent_margin)
            )
        assert _decode_series(_encode_series(series)) == series


class TestRolledUp:
    def test_exact_when_all_windows_present(self, archive):
        measure = archive.rolled_up(0, PeriodSpec([0, 1, 2]))
        assert measure.is_exact
        assert measure.rule_count == 52
        assert measure.total_size == 400
        assert measure.support == pytest.approx(52 / 400)
        assert measure.confidence == pytest.approx(52 / 84)
        assert measure.support_low == measure.support_high == measure.support

    def test_bounds_when_windows_missing(self, archive):
        measure = archive.rolled_up(1, PeriodSpec([0, 1, 2]))
        assert not measure.is_exact
        assert measure.windows_missing == (1,)
        # Missing window 1 can hide at most bound-1 = 4 occurrences.
        assert measure.rule_count == 13
        assert measure.support_high == pytest.approx((13 + 4) / 400)
        assert measure.support_low == pytest.approx(13 / 400)
        # Confidence interval brackets the point estimate.
        assert measure.confidence_low <= measure.confidence <= measure.confidence_high

    def test_subset_of_windows(self, archive):
        measure = archive.rolled_up(0, PeriodSpec([0, 2]))
        assert measure.rule_count == 22
        assert measure.total_size == 200
        assert measure.is_exact

    def test_unknown_window_in_spec_raises(self, archive):
        with pytest.raises(UnknownWindowError):
            archive.rolled_up(0, PeriodSpec([5]))

    def test_single_window_rollup_equals_measure_at(self, archive):
        rolled = archive.rolled_up(0, PeriodSpec([1]))
        direct = archive.measure_at(0, 1)
        assert rolled.support == pytest.approx(direct.support)
        assert rolled.confidence == pytest.approx(direct.confidence)
