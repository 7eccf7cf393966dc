"""End-to-end tests over a real socket: protocol, errors, metrics."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core import (
    CompareQuery,
    ContentQuery,
    ParameterSetting,
    RecommendQuery,
    RollupQuery,
    TrajectoryQuery,
)
from repro.data import PeriodSpec
from repro.serve import ServeClient
from repro.serve.httpd import read_response
from repro.serve.protocol import encode_answer
from repro.service import TaraService, canonicalize

SETTING = ParameterSetting(min_support=0.03, min_confidence=0.2)
TIGHTER = ParameterSetting(min_support=0.05, min_confidence=0.2)

SERVED_QUERIES = [
    TrajectoryQuery(setting=SETTING, anchor_window=0),
    CompareQuery(first=SETTING, second=TIGHTER),
    RecommendQuery(setting=SETTING),
    ContentQuery(setting=SETTING, items=(0, 1)),
    RollupQuery(setting=SETTING, spec=PeriodSpec([0, 1])),
]


@pytest.mark.parametrize(
    "query", SERVED_QUERIES, ids=lambda q: type(q).__name__
)
def test_served_answer_equals_direct_execution(
    query, small_kb, running_server
):
    async def scenario():
        service = TaraService(small_kb)
        async with running_server(service) as server:
            host, port = server.address
            client = await ServeClient.open(host, port)
            try:
                status, envelope = await client.execute(query)
            finally:
                await client.aclose()
        canonical = canonicalize(query, small_kb, small_kb.window_count)
        expected = encode_answer(
            canonical.query_class, service.uncached(query)
        )
        return status, envelope, canonical, expected

    status, envelope, canonical, expected = asyncio.run(scenario())
    assert status == 200
    assert envelope["ok"] is True
    assert envelope["query_class"] == canonical.query_class
    assert envelope["coalesced"] is False
    assert envelope["answer"] == expected


def test_keep_alive_serves_multiple_requests(small_kb, running_server):
    async def scenario():
        async with running_server(small_kb) as server:
            host, port = server.address
            client = await ServeClient.open(host, port)
            try:
                first = await client.execute(RecommendQuery(setting=SETTING))
                second = await client.execute(RecommendQuery(setting=SETTING))
                assert not client.closed  # same connection, both served
            finally:
                await client.aclose()
        return first, second

    (status_1, envelope_1), (status_2, envelope_2) = asyncio.run(scenario())
    assert status_1 == status_2 == 200
    assert envelope_1["answer"] == envelope_2["answer"]


class TestErrorEnvelopes:
    def test_malformed_json_is_400(self, small_kb, running_server):
        async def scenario():
            async with running_server(small_kb) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                body = b"{not json"
                writer.write(
                    b"POST /v1/query/recommend HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                    b"\r\n" + body
                )
                await writer.drain()
                status, _, raw = await read_response(reader)
                writer.close()
                await writer.wait_closed()
                return status, json.loads(raw)

        status, envelope = asyncio.run(scenario())
        assert status == 400
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "protocol"
        assert "JSON" in envelope["error"]["message"]

    def test_non_object_body_is_400(self, small_kb, running_server):
        async def scenario():
            async with running_server(small_kb) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                try:
                    return await client.query("recommend", {"setting": None})
                finally:
                    await client.aclose()

        status, envelope = asyncio.run(scenario())
        assert status == 400
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "protocol"

    def test_unknown_field_is_400(self, small_kb, running_server):
        async def scenario():
            async with running_server(small_kb) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                try:
                    return await client.query(
                        "recommend",
                        {
                            "setting": {"minsupp": 0.03, "minconf": 0.2},
                            "windw": 1,
                        },
                    )
                finally:
                    await client.aclose()

        status, envelope = asyncio.run(scenario())
        assert status == 400
        assert envelope["error"]["code"] == "protocol"
        assert "windw" in envelope["error"]["message"]

    def test_domain_error_is_400(self, small_kb, running_server):
        async def scenario():
            async with running_server(small_kb) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                try:
                    return await client.execute(
                        RecommendQuery(setting=SETTING, window=99)
                    )
                finally:
                    await client.aclose()

        status, envelope = asyncio.run(scenario())
        assert status == 400
        assert envelope["ok"] is False
        assert envelope["error"]["code"] in ("query", "validation")

    def test_unknown_route_is_404(self, small_kb, running_server):
        async def scenario():
            async with running_server(small_kb) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                try:
                    return await client.request("GET", "/nope")
                finally:
                    await client.aclose()

        status, envelope = asyncio.run(scenario())
        assert status == 404
        assert envelope["error"]["code"] == "route"

    def test_unknown_kind_is_404(self, small_kb, running_server):
        async def scenario():
            async with running_server(small_kb) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                try:
                    return await client.query("trajectories", {})
                finally:
                    await client.aclose()

        status, envelope = asyncio.run(scenario())
        assert status == 404
        assert envelope["error"]["code"] == "route"

    def test_wrong_method_is_405(self, small_kb, running_server):
        async def scenario():
            async with running_server(small_kb) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                try:
                    return await client.request("GET", "/v1/query/recommend")
                finally:
                    await client.aclose()

        status, envelope = asyncio.run(scenario())
        assert status == 405
        assert envelope["error"]["code"] == "method"

    def test_oversized_body_is_413_and_closes(self, small_kb, running_server):
        async def scenario():
            async with running_server(small_kb, max_body=64) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                status, envelope = await client.query(
                    "content",
                    {
                        "setting": {"minsupp": 0.03, "minconf": 0.2},
                        "items": list(range(200)),
                    },
                )
                closed = client.closed  # server answered Connection: close
                await client.aclose()
                return status, envelope, closed

        status, envelope, closed = asyncio.run(scenario())
        assert status == 413
        assert envelope["error"]["code"] == "protocol"
        assert closed

    def test_garbage_request_line_is_400(self, small_kb, running_server):
        async def scenario():
            async with running_server(small_kb) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"NOT HTTP\r\n\r\n")
                await writer.drain()
                status, _, body = await read_response(reader)
                writer.close()
                await writer.wait_closed()
                return status, json.loads(body)

        status, envelope = asyncio.run(scenario())
        assert status == 400
        assert envelope["ok"] is False


class TestObservability:
    def test_healthz_reports_epoch_and_state(self, small_kb, running_server):
        async def scenario():
            async with running_server(small_kb) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                try:
                    return await client.healthz()
                finally:
                    await client.aclose()

        status, payload = asyncio.run(scenario())
        assert status == 200
        assert payload["status"] == "serving"
        assert payload["epoch"] == small_kb.window_count
        assert payload["windows"] == small_kb.window_count

    def test_metrics_counts_requests(self, small_kb, running_server):
        async def scenario():
            async with running_server(small_kb) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                try:
                    await client.execute(RecommendQuery(setting=SETTING))
                    await client.execute(RecommendQuery(setting=SETTING))
                    return await client.metrics()
                finally:
                    await client.aclose()

        status, payload = asyncio.run(scenario())
        assert status == 200
        metrics = payload["metrics"]
        endpoint = metrics["endpoints"]["query/recommend"]
        assert endpoint["requests"] == 2
        assert endpoint["statuses"] == {"2xx": 2}
        assert endpoint["latency"]["count"] == 2
        assert metrics["coalesce"]["executions"] >= 1
        assert metrics["requests"] == 2
        assert metrics["peak_in_flight"] >= 1
        # The collector section: per-generation counts and the frozen
        # heap the serving gateway holds.
        collector = payload["gc"]
        assert set(collector) == {"gen0", "gen1", "gen2", "frozen"}
        for generation in ("gen0", "gen1", "gen2"):
            counts = collector[generation]
            assert set(counts) == {"collections", "collected", "uncollectable"}
            assert all(
                isinstance(value, int) and value >= 0
                for value in counts.values()
            )
        assert collector["frozen"] > 0
