"""ASGI adapter tests: same gateway, same envelopes, no server needed.

The adapter is driven directly through hand-rolled ``receive``/``send``
callables (the ASGI 3 protocol is just two async functions), proving it
needs no third-party server to be exercised — and that its answers are
byte-identical to the asyncio front door's, since both delegate to the
same :class:`QueryGateway`.
"""

from __future__ import annotations

import asyncio
import gc
import json

from repro.core import ParameterSetting, RecommendQuery
from repro.serve import create_asgi_app
from repro.serve.protocol import encode_answer, encode_request
from repro.service import TaraService

SETTING = ParameterSetting(min_support=0.03, min_confidence=0.2)


async def _call(app, method, path, payload=None):
    """Drive one http-scope request through *app*; returns (status, body)."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    received = [
        {"type": "http.request", "body": body, "more_body": False}
    ]
    sent = []

    async def receive():
        return received.pop(0)

    async def send(message):
        sent.append(message)

    await app({"type": "http", "method": method, "path": path}, receive, send)
    start = next(m for m in sent if m["type"] == "http.response.start")
    chunks = b"".join(
        m.get("body", b"") for m in sent if m["type"] == "http.response.body"
    )
    return start["status"], json.loads(chunks)


def test_asgi_query_matches_direct_execution(small_kb):
    async def scenario():
        service = TaraService(small_kb)
        app = create_asgi_app(service)
        query = RecommendQuery(setting=SETTING)
        kind, payload = encode_request(query)
        status, envelope = await _call(app, "POST", f"/v1/query/{kind}", payload)
        app.gateway.aclose()
        expected = encode_answer("Q3", service.uncached(query))
        return status, envelope, expected

    status, envelope, expected = asyncio.run(scenario())
    assert status == 200
    assert envelope["ok"] is True
    assert envelope["answer"] == expected


def test_asgi_routes_and_errors(small_kb):
    async def scenario():
        app = create_asgi_app(TaraService(small_kb))
        health = await _call(app, "GET", "/healthz")
        missing = await _call(app, "GET", "/nope")
        bad = await _call(
            app, "POST", "/v1/query/recommend", {"bogus": True}
        )
        app.gateway.aclose()
        return health, missing, bad

    health, missing, bad = asyncio.run(scenario())
    assert health[0] == 200 and health[1]["status"] == "serving"
    assert missing[0] == 404
    assert bad[0] == 400 and bad[1]["error"]["code"] == "protocol"


def test_asgi_lifespan_drains_gateway(small_kb):
    async def scenario():
        app = create_asgi_app(TaraService(small_kb))
        frozen_while_serving = gc.get_freeze_count()
        messages = [
            {"type": "lifespan.startup"},
            {"type": "lifespan.shutdown"},
        ]
        sent = []

        async def receive():
            return messages.pop(0)

        async def send(message):
            sent.append(message)

        await app({"type": "lifespan"}, receive, send)
        return app, sent, frozen_while_serving

    app, sent, frozen_while_serving = asyncio.run(scenario())
    assert [m["type"] for m in sent] == [
        "lifespan.startup.complete",
        "lifespan.shutdown.complete",
    ]
    assert app.gateway.draining
    # The gateway froze the heap when built; shutdown unfroze it.
    assert frozen_while_serving > 0
    assert gc.get_freeze_count() == 0
