"""``paused_gc`` scopes: one process-wide pause, counted across threads."""

import gc
import sys
import threading

import pytest

from repro.common.gcscope import paused_gc, paused_then_frozen


@pytest.fixture()
def collector_on():
    gc.enable()
    yield
    gc.enable()


class TestPausedGc:
    def test_disables_inside_and_restores_after(self, collector_on):
        with paused_gc():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_nested_scopes_keep_the_pause_until_the_outer_exit(self, collector_on):
        with paused_gc():
            with paused_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_already_disabled_collector_stays_disabled(self):
        gc.disable()
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_scope_that_raises_restores_the_collector(self, collector_on):
        with pytest.raises(RuntimeError):
            with paused_gc():
                raise RuntimeError("inside the pause")
        assert gc.isenabled()

    def test_raising_inner_scope_keeps_the_outer_pause(self, collector_on):
        with paused_gc():
            with pytest.raises(RuntimeError):
                with paused_gc():
                    raise RuntimeError("inside the inner pause")
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_interleaved_scopes_on_two_threads(self, collector_on):
        """A enters, B enters, A exits, B checks, B exits."""
        a_entered = threading.Event()
        a_exited = threading.Event()
        b_entered = threading.Event()
        seen = {}

        def thread_a():
            with paused_gc():
                a_entered.set()
                b_entered.wait(5)
            a_exited.set()

        def thread_b():
            a_entered.wait(5)
            with paused_gc():
                b_entered.set()
                a_exited.wait(5)
                seen["inside_b_after_a_exit"] = gc.isenabled()
            seen["after_both"] = gc.isenabled()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert seen == {"inside_b_after_a_exit": False, "after_both": True}

    def test_many_threads_never_see_the_collector_on_inside_a_scope(
        self, collector_on
    ):
        """A lost update of the scope count would either re-enable the
        collector under a running scope or never re-enable it."""
        seen_enabled = []
        start = threading.Barrier(8)

        def worker():
            start.wait(5)
            for _ in range(300):
                with paused_gc():
                    with paused_gc():
                        sum(range(200))
                    if gc.isenabled():
                        seen_enabled.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen_enabled == []
        assert gc.isenabled()

    def test_paused_then_frozen_collects_and_freezes_at_its_exit(self, collector_on):
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.callbacks.append(count)
        try:
            with paused_gc():
                with paused_then_frozen():
                    pass
                assert collections == [2]
                assert gc.get_freeze_count() > 0
                assert not gc.isenabled()
        finally:
            gc.callbacks.remove(count)
            gc.unfreeze()
        assert gc.isenabled()
