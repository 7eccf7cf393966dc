"""Threaded stress over the paths the R006 contracts now guard.

PR 8 replaced the listener/purge protocol with pinned MVCC snapshots,
so the races worth hammering moved: explorer creation from a cold
snapshot, queries racing *publishes* (each publish installs a new
snapshot and retires the old one when its readers drain), and pin/
release storms against the publisher.  CPython's GIL makes the old
races hard to *force*, so the assertions pin observable outcomes
(equal answers, retire-exactly-once, coherent epochs) rather than
timing.
"""

import threading

import pytest

from repro.core import (
    GenerationConfig,
    IncrementalTara,
    ParameterSetting,
    RecommendQuery,
)
from repro.service import TaraService

SETTING = ParameterSetting(0.05, 0.3)
WINDOW_0 = RecommendQuery(setting=SETTING, window=0)


@pytest.fixture()
def incremental(small_windows):
    inc = IncrementalTara(GenerationConfig(0.02, 0.1))
    inc.publish([small_windows.window(0)])
    return inc


def run_all(threads):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestExplorerCreationRace:
    def test_cold_concurrent_queries_share_one_explorer(self, small_kb):
        service = TaraService(small_kb)
        expected = service.uncached(WINDOW_0)
        results = []
        errors = []

        def client():
            try:
                results.append(service.execute(WINDOW_0))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        run_all([threading.Thread(target=client) for _ in range(16)])
        assert not errors
        assert all(got.region == expected.region for got in results)
        # The snapshot lock makes lazy creation single-shot: every
        # reader of the pinned snapshot reuses one explorer.
        with service.pin() as snapshot:
            assert snapshot.explorer() is snapshot.explorer()


class TestQueriesRacingPublishes:
    def test_explicit_window_answers_survive_epoch_churn(
        self, incremental, small_windows
    ):
        service = TaraService(incremental)
        expected = service.execute(WINDOW_0)
        errors = []
        stop = threading.Event()

        def client():
            while not stop.is_set():
                got = service.execute(WINDOW_0)
                if got.region != expected.region:
                    errors.append(got)

        clients = [threading.Thread(target=client) for _ in range(4)]
        for thread in clients:
            thread.start()
        try:
            for index in range(1, small_windows.window_count):
                incremental.publish([small_windows.window(index)])
        finally:
            stop.set()
            for thread in clients:
                thread.join()
        assert not errors
        # Every publish installed its snapshot: epochs ended in sync.
        assert service.epoch == incremental.window_count


class TestPinReleaseStorm:
    def test_concurrent_pins_never_see_a_retired_snapshot(
        self, incremental, small_windows
    ):
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    with incremental.snapshot() as snapshot:
                        if snapshot.retired:
                            errors.append(snapshot.epoch)
                except Exception as error:  # pragma: no cover
                    errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(8)]
        for thread in readers:
            thread.start()
        try:
            for index in range(1, small_windows.window_count):
                incremental.publish([small_windows.window(index)])
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert not errors

    def test_superseded_snapshots_retire_exactly_once(
        self, incremental, small_windows
    ):
        handles = [incremental.snapshot() for _ in range(32)]
        superseded = handles[0].snapshot
        incremental.publish([small_windows.window(1)])
        assert not superseded.retired  # readers still pin it

        run_all(
            [
                threading.Thread(target=handle.release)
                for handle in handles
            ]
        )
        assert superseded.retired
        assert superseded.retire_count == 1
        # Two retirements total: the fixture's epoch-0 snapshot (when
        # the first publish superseded it) and this one.
        stats = incremental.snapshot_stats()
        assert stats["retired_snapshots"] == 2
