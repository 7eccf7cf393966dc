"""Span recording, self time, and the traced benchmark run."""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, List

import pytest

from repro.core.queries import CompareQuery, ContentQuery, RecommendQuery, TrajectoryQuery
from repro.core.regions import ParameterSetting
from repro.serve.server import ServeConfig, create_server

from tarabench.inputs import query_request
from tarabench.trace import ROOT, Span, SpanRecorder, self_times
from tarabench.wire import Connection

REPO = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_the_union_of_children() -> None:
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1),
        Span(2, "a", 1.0, 3.0, 1, 1),
        Span(3, "b", 2.0, 5.0, 1, 1),  # overlaps a: the union counts once
        Span(4, "c", 8.0, 12.0, 1, 1),  # clipped to the parent's end
        Span(5, "a.child", 1.5, 2.5, 2, 1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def _bodies(knowledge_base: Any, recorder: Any) -> List[bytes]:
    setting = ParameterSetting(0.02, 0.4)
    queries = [
        TrajectoryQuery(setting=setting, anchor_window=0),
        CompareQuery(first=ParameterSetting(0.03, 0.5), second=setting),
        RecommendQuery(setting=setting, window=3),
        ContentQuery(setting=setting, items=(0, 1)),
    ]
    raws = [query_request(query, gzip=True).raw for query in queries] * 2

    async def main() -> List[bytes]:
        if recorder is not None:
            recorder.install(asyncio.get_running_loop())
        try:
            server = create_server(knowledge_base, ServeConfig(port=0, pool_size=2))
            await server.start()
            connection = await Connection.open(*server.address)
            try:
                return [(await connection.exchange(raw)).body for raw in raws]
            finally:
                await connection.close()
                await server.stop()
        finally:
            if recorder is not None:
                recorder.uninstall()

    return asyncio.run(asyncio.wait_for(main(), 120))


def test_traced_run_serves_identical_bodies(small_kb: Any) -> None:
    plain = _bodies(small_kb, None)
    recorder = SpanRecorder()
    traced = _bodies(small_kb, recorder)
    assert traced == plain
    names = {span.name for span in recorder.spans}
    assert {ROOT, "keys.canonicalize", "explorer.execute", "gzip.compress"} <= names
    by_id = {span.span_id: span for span in recorder.spans}
    for span in recorder.spans:
        if span.name == "explorer.execute":
            # Parent links survive the thread-pool hop.
            assert by_id[span.parent].name == "service.execute_on"
            assert by_id[span.request].name == ROOT
        if span.name == "protocol.encode_answer_bytes":
            assert span.end > span.start


@pytest.mark.parametrize("workload", ["hot", "explore", "ingest"])
def test_traced_run_reports_every_layer_metric(workload: str) -> None:
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", "1",
        ],
        cwd=REPO, capture_output=True, text=True, timeout=400, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = {metric["name"] for metric in json.load(handle)["per_layer"]}
    assert set(result["metrics"]) == declared
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["trace.overhead_pct"]["unit"] == "%"
