"""MVCC snapshot lifecycle: pinning, retirement, and view isolation."""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import QueryError, RetiredSnapshotError
from repro.core import (
    GenerationConfig,
    IncrementalTara,
    ParameterSetting,
    TrajectoryQuery,
    build_knowledge_base,
)
from repro.core.snapshot import Snapshot
from repro.data import TransactionDatabase, WindowedDatabase
from repro.serve.protocol import encode_answer

CONFIG = GenerationConfig(0.02, 0.1)
SETTING = ParameterSetting(0.05, 0.3)


@pytest.fixture()
def publisher(small_windows) -> IncrementalTara:
    incremental = IncrementalTara(CONFIG)
    incremental.publish([small_windows.window(0), small_windows.window(1)])
    return incremental


class TestPinLifecycle:
    def test_handle_pins_and_releases(self, publisher):
        snapshot = publisher.current
        assert snapshot.refs == 1  # the publisher's standing pin
        with publisher.snapshot() as pinned:
            assert pinned is snapshot
            assert snapshot.refs == 2
        assert snapshot.refs == 1
        assert not snapshot.retired

    def test_handle_release_is_idempotent(self, publisher):
        handle = publisher.snapshot()
        handle.release()
        handle.release()
        assert publisher.current.refs == 1

    def test_pin_after_retire_raises(self, publisher, small_windows):
        superseded = publisher.current
        publisher.publish([small_windows.window(2)])
        assert superseded.retired
        with pytest.raises(RetiredSnapshotError, match="retired"):
            superseded.pin()
        with pytest.raises(RetiredSnapshotError, match="retired"):
            superseded.explorer()

    def test_release_without_pin_raises(self, publisher, small_windows):
        superseded = publisher.current
        publisher.publish([small_windows.window(2)])
        with pytest.raises(RetiredSnapshotError, match="without a pin"):
            superseded.release()

    def test_epoch_zero_snapshot_has_no_explorer(self):
        incremental = IncrementalTara(CONFIG)
        with incremental.snapshot() as genesis:
            assert genesis.epoch == 0
            with pytest.raises(QueryError):
                genesis.explorer()


class TestRetirement:
    def test_reader_pin_defers_retirement(self, publisher, small_windows):
        handle = publisher.snapshot()
        superseded = handle.snapshot
        publisher.publish([small_windows.window(2)])
        # The publisher dropped its standing pin, but the reader's pin
        # keeps the superseded view fully queryable.
        assert not superseded.retired
        assert superseded.window_count == 2
        assert superseded.explorer().ruleset(SETTING, 0)
        handle.release()
        assert superseded.retired
        assert superseded.retire_count == 1

    def test_release_storm_retires_exactly_once(self, publisher, small_windows):
        handles = [publisher.snapshot() for _ in range(32)]
        superseded = handles[0].snapshot
        publisher.publish([small_windows.window(2)])
        barrier = threading.Barrier(8)

        def drain(chunk):
            barrier.wait()
            for handle in chunk:
                handle.release()

        threads = [
            threading.Thread(target=drain, args=(handles[i::8],))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert superseded.retired
        assert superseded.retire_count == 1

    def test_retirement_callback_fires_exactly_once(self, small_windows):
        retirements = []
        kb = build_knowledge_base(
            WindowedDatabase.partition_by_count(
                TransactionDatabase.from_itemlists(
                    [[0, 1], [0, 1], [1, 2], [0, 2]]
                ),
                2,
            ),
            CONFIG,
        )
        snapshot = Snapshot(2, kb, on_retire=lambda: retirements.append(1))
        snapshot.pin()
        snapshot.pin()
        snapshot.release()
        assert retirements == []
        snapshot.release()
        assert retirements == [1]
        with pytest.raises(RetiredSnapshotError, match="without a pin"):
            snapshot.release()
        assert retirements == [1]


class TestViewIsolation:
    def test_pinned_query_during_publish(self, publisher, small_windows):
        """A reader holding a pin answers from its frozen view even while
        the publisher is mid-build on the successor."""
        results = {}
        in_query = threading.Event()
        finish_query = threading.Event()

        def reader():
            with publisher.snapshot() as snapshot:
                explorer = snapshot.explorer()
                in_query.set()
                finish_query.wait(timeout=5.0)
                results["windows"] = snapshot.window_count
                results["rules"] = explorer.ruleset(SETTING, 1)

        thread = threading.Thread(target=reader)
        thread.start()
        assert in_query.wait(timeout=5.0)
        publisher.publish([small_windows.window(2)])
        finish_query.set()
        thread.join()
        assert results["windows"] == 2
        assert publisher.window_count == 3
        expected_kb = build_knowledge_base(
            WindowedDatabase.partition_by_count(
                TransactionDatabase(
                    tuple(small_windows.window(0)) + tuple(small_windows.window(1))
                ),
                2,
            ),
            CONFIG,
        )
        expected = [
            (expected_kb.catalog.get(r).antecedent, expected_kb.catalog.get(r).consequent)
            for r in expected_kb.slice(1).collect(SETTING)
        ]
        publisher_kb = publisher.knowledge_base
        got = [
            (publisher_kb.catalog.get(r).antecedent, publisher_kb.catalog.get(r).consequent)
            for r in results["rules"]
        ]
        assert got == expected


transactions_strategy = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=7), min_size=1, max_size=4),
    min_size=12,
    max_size=36,
)


@settings(max_examples=15, deadline=None)
@given(transactions_strategy, st.integers(min_value=2, max_value=4))
def test_snapshot_answers_are_byte_identical_to_serial_rebuild(
    transactions, window_count
):
    """The mid-ingest guarantee, property-tested: after any prefix of
    publishes, the pinned snapshot's encoded answer equals a fresh
    single-threaded build over the same windows, byte for byte."""
    db = TransactionDatabase.from_itemlists([sorted(t) for t in transactions])
    windows = WindowedDatabase.partition_by_count(db, window_count)
    config = GenerationConfig(0.0, 0.0)
    incremental = IncrementalTara(config)
    for index in range(windows.window_count):
        incremental.publish([windows.window(index)])
        with incremental.snapshot() as snapshot:
            query = TrajectoryQuery(
                setting=ParameterSetting(0.1, 0.2), anchor_window=index
            )
            served = json.dumps(
                encode_answer("Q1", snapshot.explorer().execute(query)),
                sort_keys=True,
            ).encode("utf-8")
        rebuilt_kb = build_knowledge_base(
            WindowedDatabase.partition_by_count(
                TransactionDatabase(
                    tuple(
                        t
                        for w in range(index + 1)
                        for t in windows.window(w)
                    )
                ),
                index + 1,
            ),
            config,
        )
        from repro.core import TaraExplorer

        rebuilt = json.dumps(
            encode_answer("Q1", TaraExplorer(rebuilt_kb).execute(query)),
            sort_keys=True,
        ).encode("utf-8")
        assert served == rebuilt
