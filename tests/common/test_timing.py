"""PhaseTimer and stopwatch behaviour."""

import time

from repro.common.timing import PhaseTimer, stopwatch


class TestPhaseTimer:
    def test_single_phase_records_duration(self):
        timer = PhaseTimer()
        with timer.phase("work"):
            time.sleep(0.005)
        assert timer.totals["work"] >= 0.004
        assert timer.counts["work"] == 1

    def test_same_phase_accumulates(self):
        timer = PhaseTimer()
        for _ in range(3):
            with timer.phase("step"):
                pass
        assert timer.counts["step"] == 3
        assert timer.totals["step"] >= 0.0

    def test_total_sums_phases(self):
        timer = PhaseTimer()
        timer.add("a", 0.25)
        timer.add("b", 0.75)
        assert timer.total == 1.0

    def test_breakdown_preserves_first_seen_order(self):
        timer = PhaseTimer()
        timer.add("z-last-alphabetically-first-seen", 1.0)
        timer.add("a", 2.0)
        timer.add("z-last-alphabetically-first-seen", 3.0)
        assert list(timer.breakdown()) == ["z-last-alphabetically-first-seen", "a"]
        assert timer.breakdown()["z-last-alphabetically-first-seen"] == 4.0

    def test_merge_combines_totals_and_counts(self):
        first = PhaseTimer()
        first.add("x", 1.0)
        second = PhaseTimer()
        second.add("x", 2.0)
        second.add("y", 3.0)
        second.add("y", 1.0)
        first.merge(second)
        assert first.totals == {"x": 3.0, "y": 4.0}
        assert first.counts == {"x": 2, "y": 2}

    def test_phase_recorded_even_on_exception(self):
        timer = PhaseTimer()
        try:
            with timer.phase("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert timer.counts["failing"] == 1

    def test_report_mentions_every_phase(self):
        timer = PhaseTimer()
        timer.add("mine", 0.1)
        timer.add("index", 0.2)
        report = timer.report("my title")
        assert "my title" in report
        assert "mine" in report
        assert "index" in report
        assert "total" in report

    def test_report_on_empty_timer(self):
        assert "total" in PhaseTimer().report()


class TestStopwatch:
    def test_measures_elapsed_time(self):
        with stopwatch() as clock:
            time.sleep(0.005)
        assert clock.seconds >= 0.004
        assert clock.millis == clock.seconds * 1e3

    def test_measures_even_on_exception(self):
        try:
            with stopwatch() as clock:
                raise ValueError("boom")
        except ValueError:
            pass
        assert clock.seconds >= 0.0
