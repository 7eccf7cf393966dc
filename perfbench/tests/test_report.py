"""The read metrics come from the run's best slice."""

from __future__ import annotations

from pathlib import Path

import pytest

from tarabench import report
from tarabench.report import end_to_end, slices
from tarabench.workloads import Phase, RunRecord, Sink


def _record(workload: str, tmp_path: Path) -> RunRecord:
    record = RunRecord(workload, Sink(tmp_path / "spool"), setup_s=[1.0, 3.0, 2.0])
    record.peak_rss_kb = 2048
    return record


def _read(record: RunRecord, started: float, latency: float) -> None:
    record.sink.starts.append(started)
    record.sink.latencies.append(latency)


def _phase(started: float, ended: float, reads: tuple) -> Phase:
    return Phase(started, ended, reads, {}, {}, {}, {})


def test_hot_reports_its_fastest_second(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setitem(report.SLICE_S, "hot", 1.0)
    record = _record("hot", tmp_path)
    # Three 1-second slices: 4 slow reads, 10 fast reads, 5 reads.
    for index in range(4):
        _read(record, 100.0 + index * 0.25, 0.004)
    for index in range(10):
        _read(record, 101.0 + index * 0.1, 0.001 + index * 1e-4)
    for index in range(5):
        _read(record, 102.0 + index * 0.2, 0.002)
    record.phases.append(_phase(100.0, 103.0, (0, 19)))
    assert [rate for _, rate in slices(record)] == pytest.approx([4, 10, 5])
    metrics = end_to_end(record)
    assert metrics["read_rps"] == pytest.approx(10)
    assert metrics["read_p50_ms"] == pytest.approx(1.45)
    assert metrics["setup_s"] == 2.0
    assert metrics["peak_rss_mb"] == 2.0


def test_each_ingest_episode_is_a_slice(tmp_path: Path) -> None:
    record = _record("ingest", tmp_path)
    for latency in (0.05, 0.06, 0.07):
        _read(record, 0.0, latency)
    for latency in (0.02, 0.03):
        _read(record, 0.0, latency)
    record.phases += [_phase(0.0, 3.0, (0, 3)), _phase(5.0, 6.0, (3, 5))]
    assert slices(record) == pytest.approx([(0.06, 1.0), (0.025, 2.0)])
    assert end_to_end(record)["read_p50_ms"] == pytest.approx(25.0)
