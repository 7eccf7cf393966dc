"""End-to-end wire-hot path: chunking, gzip, ETags, the byte cache.

Everything here talks to a real :class:`TaraServer` over a real socket
through :class:`ServeClient` — chunked reassembly, content negotiation,
and conditional requests are exercised exactly as an external client
would see them.
"""

from __future__ import annotations

import asyncio
import gzip
import json

import pytest

from repro.common.errors import ValidationError
from repro.core import (
    CompareQuery,
    ContentQuery,
    ParameterSetting,
    RecommendQuery,
    TrajectoryQuery,
)
from repro.serve import auto_pool_size, resolve_pool_size
from repro.serve.protocol import encode_answer_blob, encode_request
from repro.service import TaraService

from tests.serve.client import ServeClient

SETTING = ParameterSetting(min_support=0.02, min_confidence=0.1)
QUERY = TrajectoryQuery(setting=SETTING, anchor_window=0)

#: One query of each class whose served bodies the byte cache holds.
CLASS_QUERIES = {
    "Q1": QUERY,
    "Q2": CompareQuery(
        first=SETTING,
        second=ParameterSetting(min_support=0.03, min_confidence=0.1),
    ),
    "Q3": RecommendQuery(setting=SETTING),
    "Q5": ContentQuery(setting=SETTING, items=(1, 2)),
}


def wire(query):
    kind, payload = encode_request(query)
    return f"/v1/query/{kind}", payload


async def connect(server):
    host, port = server.address
    return await ServeClient.open(host, port)


class TestChunkedStreaming:
    def test_large_body_streams_and_reassembles(
        self, small_kb, running_server, monkeypatch
    ):
        # Force streaming for any realistic body size, then check the
        # reassembled bytes are exactly the non-streamed ones.
        import repro.serve.gateway as gateway

        target, payload = wire(QUERY)

        async def scenario():
            async with running_server(small_kb) as server:
                client = await connect(server)
                monkeypatch.setattr(gateway, "STREAM_THRESHOLD", 256)
                status, headers, chunked_body = await client.exchange(
                    "POST", target, payload
                )
                assert status == 200
                assert headers.get("transfer-encoding") == "chunked"
                assert "content-length" not in headers
                monkeypatch.setattr(gateway, "STREAM_THRESHOLD", 1 << 30)
                status, headers, plain_body = await client.exchange(
                    "POST", target, payload
                )
                assert status == 200
                assert "transfer-encoding" not in headers
                assert int(headers["content-length"]) == len(plain_body)
                await client.aclose()
                return chunked_body, plain_body

        chunked_body, plain_body = asyncio.run(scenario())
        first = json.loads(chunked_body)
        second = json.loads(plain_body)
        assert first["answer"] == second["answer"]
        # Chunked transfer framing must be invisible to the payload:
        # same bytes after the envelope's per-request cached flag.
        assert chunked_body.split(b'"answer":', 1)[1] == plain_body.split(
            b'"answer":', 1
        )[1]


class TestResponseCacheOnTheWire:
    def test_second_request_is_served_from_cache(
        self, small_kb, running_server
    ):
        target, payload = wire(QUERY)

        async def scenario():
            async with running_server(small_kb) as server:
                client = await connect(server)
                _, _, first = await client.exchange("POST", target, payload)
                _, _, second = await client.exchange("POST", target, payload)
                _, metrics = await client.metrics()
                await client.aclose()
                return first, second, metrics

        first, second, metrics = asyncio.run(scenario())
        assert json.loads(first)["cached"] is False
        assert json.loads(second)["cached"] is True
        assert json.loads(first)["answer"] == json.loads(second)["answer"]
        respcache = metrics["metrics"]["respcache"]
        assert respcache["hits"] == 1
        assert respcache["misses"] == 1
        assert respcache["stores"] == 1
        assert respcache["bytes_served"] > 0

    def test_tiny_budget_rejects_and_reencodes(
        self, small_kb, running_server
    ):
        target, payload = wire(QUERY)

        async def scenario():
            async with running_server(
                small_kb, response_cache_bytes=128
            ) as server:
                client = await connect(server)
                _, _, first = await client.exchange("POST", target, payload)
                _, _, second = await client.exchange("POST", target, payload)
                _, metrics = await client.metrics()
                await client.aclose()
                return first, second, metrics

        first, second, metrics = asyncio.run(scenario())
        # The body never fits, so nothing is ever served from cache …
        assert json.loads(second)["cached"] is False
        respcache = metrics["metrics"]["respcache"]
        assert respcache["rejected"] >= 1
        assert respcache["hits"] == 0
        # … but the answers are still correct.
        assert json.loads(first)["answer"] == json.loads(second)["answer"]


class TestGzipNegotiation:
    @pytest.mark.parametrize("query_class", sorted(CLASS_QUERIES))
    def test_round_trip_and_cached_variant(
        self, small_kb, running_server, query_class
    ):
        query = CLASS_QUERIES[query_class]
        target, payload = wire(query)
        service = TaraService(small_kb)
        # Served == direct: every body ends with the canonical encoding
        # of a cache-bypassing execution.
        answer_tail = (
            b'"answer":'
            + encode_answer_blob(query_class, service.uncached(query))
            + b"}"
        )

        async def scenario():
            async with running_server(service) as server:
                client = await connect(server)
                # Cold miss: identity even though the client accepts gzip.
                _, cold_headers, cold = await client.exchange(
                    "POST", target, payload, accept_gzip=True
                )
                # Warm hit: compressed variant, created once.
                _, warm_headers, warm_raw = await client.exchange(
                    "POST", target, payload, accept_gzip=True,
                    decompress=False,
                )
                variants = server.gateway.respcache.counters()["gzip_variants"]
                _, _, repeat_raw = await client.exchange(
                    "POST", target, payload, accept_gzip=True,
                    decompress=False,
                )
                repeat_variants = server.gateway.respcache.counters()[
                    "gzip_variants"
                ]
                _, identity_headers, identity = await client.exchange(
                    "POST", target, payload
                )
                status_304, _, body_304 = await client.exchange(
                    "POST", target, payload,
                    if_none_match=identity_headers["etag"],
                )
                _, metrics = await client.metrics()
                await client.aclose()
                return (
                    cold_headers, cold, warm_headers, warm_raw, repeat_raw,
                    variants, repeat_variants, identity, status_304,
                    body_304, metrics,
                )

        (
            cold_headers, cold, warm_headers, warm_raw, repeat_raw,
            variants, repeat_variants, identity, status_304, body_304,
            metrics,
        ) = asyncio.run(scenario())
        assert "content-encoding" not in cold_headers
        assert warm_headers.get("content-encoding") == "gzip"
        assert warm_headers.get("vary") == "Accept-Encoding"
        warm = gzip.decompress(warm_raw)
        assert json.loads(warm)["cached"] is True
        for body in (cold, warm, identity):
            assert body.endswith(answer_tail)
        # Deterministic compression: the repeat body is byte-identical,
        # and the variant was compressed exactly once.
        assert repeat_raw == warm_raw
        assert variants == repeat_variants == 1
        assert status_304 == 304 and body_304 == b""
        assert metrics["metrics"]["respcache"]["hits"] > 0

    def test_gzip_not_served_when_not_accepted(
        self, small_kb, running_server
    ):
        target, payload = wire(QUERY)

        async def scenario():
            async with running_server(small_kb) as server:
                client = await connect(server)
                await client.exchange(
                    "POST", target, payload, accept_gzip=True
                )
                await client.exchange(
                    "POST", target, payload, accept_gzip=True
                )  # creates the variant
                _, headers, body = await client.exchange(
                    "POST", target, payload
                )
                await client.aclose()
                return headers, body

        headers, body = asyncio.run(scenario())
        assert "content-encoding" not in headers
        assert json.loads(body)["cached"] is True


class TestConditionalRequests:
    def test_etag_round_trip_yields_304(self, small_kb, running_server):
        target, payload = wire(QUERY)

        async def scenario():
            async with running_server(small_kb) as server:
                client = await connect(server)
                _, headers, _ = await client.exchange(
                    "POST", target, payload
                )
                etag = headers["etag"]
                status, cond_headers, body = await client.exchange(
                    "POST", target, payload, if_none_match=etag
                )
                status_star, _, _ = await client.exchange(
                    "POST", target, payload, if_none_match='"nope", *'
                )
                _, metrics = await client.metrics()
                await client.aclose()
                return etag, status, cond_headers, body, status_star, metrics

        etag, status, cond_headers, body, status_star, metrics = asyncio.run(
            scenario()
        )
        assert etag.startswith('W/"')
        assert status == 304 and body == b""
        assert cond_headers.get("etag") == etag
        assert status_star == 304  # '*' matches any representation
        assert metrics["metrics"]["respcache"]["not_modified"] == 2

    def test_stale_etag_gets_full_answer(self, small_kb, running_server):
        target, payload = wire(QUERY)

        async def scenario():
            async with running_server(small_kb) as server:
                client = await connect(server)
                await client.exchange("POST", target, payload)
                status, _, body = await client.exchange(
                    "POST", target, payload, if_none_match='W/"deadbeef"'
                )
                await client.aclose()
                return status, body

        status, body = asyncio.run(scenario())
        assert status == 200
        assert json.loads(body)["ok"] is True


class TestPoolSizing:
    def test_auto_resolves_to_cpu_count(self):
        assert resolve_pool_size("auto") == auto_pool_size()
        assert auto_pool_size() >= 1

    def test_explicit_counts_pass_through(self):
        assert resolve_pool_size(3) == 3
        assert resolve_pool_size("5") == 5

    @pytest.mark.parametrize("bad", ["0", "-2", "many", "", "1.5"])
    def test_invalid_sizes_rejected(self, bad):
        with pytest.raises(ValidationError, match="pool"):
            resolve_pool_size(bad)
