"""The gateway's serving-heap policy, and what it relies on.

Building a gateway freezes the process heap, each served publish
collects its own allocations once and freezes the survivors, and
closing the gateway unfreezes it (``TaraServer.stop`` here; ASGI
lifespan shutdown in ``test_asgi.py``).  Frozen objects are never
cycle-collected, so a superseded snapshot's knowledge base must be
freed by reference counting alone: the retirement test runs with the
collector disabled.
"""

from __future__ import annotations

import asyncio
import gc
import json
import weakref

import repro.serve.gateway as gateway_module
import repro.service.service as service_module
from repro.core import (
    CompareQuery,
    ContentQuery,
    GenerationConfig,
    IncrementalTara,
    ParameterSetting,
    RecommendQuery,
    TrajectoryQuery,
)
from repro.serve import ServeClient
from repro.serve.gateway import QueryGateway
from repro.serve.protocol import encode_batches, encode_request
from repro.service import TaraService

CONFIG = GenerationConfig(0.02, 0.1, build_item_index=True)
SETTING = ParameterSetting(min_support=0.03, min_confidence=0.2)
OTHER = ParameterSetting(min_support=0.05, min_confidence=0.3)

#: One request of each cacheable class (Q1, Q2, Q3, Q5).
QUERIES = (
    TrajectoryQuery(setting=SETTING, anchor_window=0),
    CompareQuery(first=SETTING, second=OTHER),
    RecommendQuery(setting=SETTING),
    ContentQuery(setting=SETTING, items=(1, 2)),
)


def _publisher(small_windows) -> IncrementalTara:
    incremental = IncrementalTara(CONFIG)
    incremental.publish([small_windows.window(0), small_windows.window(1)])
    return incremental


def _request(query):
    kind, payload = encode_request(query)
    return f"/v1/query/{kind}", json.dumps(payload).encode("utf-8")


def _append_body(small_windows, window: int) -> bytes:
    payload = encode_batches([small_windows.window(window)])
    return json.dumps(payload).encode("utf-8")


def test_superseded_kb_is_freed_when_its_last_pin_is_released(
    small_windows,
):
    async def scenario():
        service = TaraService(_publisher(small_windows))
        gateway = QueryGateway(service, pool_size=2)
        handle = service.pin()
        superseded = weakref.ref(handle.snapshot.knowledge_base)
        statuses = []
        for query in QUERIES:
            status, _ = await gateway.dispatch("POST", *_request(query))
            statuses.append(status)
        status, envelope = await gateway.dispatch(
            "POST", "/v1/admin/append", _append_body(small_windows, 2)
        )
        statuses.append(status)
        pinned_alive = superseded() is not None
        handle.release()
        del handle
        released_alive = superseded() is not None
        gateway.aclose()
        return statuses, envelope, pinned_alive, released_alive

    gc.disable()
    statuses, envelope, pinned_alive, released_alive = asyncio.run(scenario())
    assert statuses == [200] * 5
    assert envelope["snapshot_epoch"] == 3
    assert pinned_alive  # the reader's pin kept the old view
    assert not released_alive  # reference counting alone freed it


def test_server_freezes_the_heap_until_it_stops(
    small_windows, running_server
):
    async def scenario():
        counts = {}
        service = TaraService(_publisher(small_windows))
        async with running_server(service) as server:
            counts["built"] = gc.get_freeze_count()
            client = await ServeClient.open(*server.address)
            gc.unfreeze()  # so the count below is the publish's own
            status, _ = await client.admin_append([small_windows.window(2)])
            counts["appended"] = gc.get_freeze_count()
            await client.aclose()
        counts["stopped"] = gc.get_freeze_count()
        return status, counts

    status, counts = asyncio.run(scenario())
    assert status == 200
    assert counts["built"] > 0
    assert counts["appended"] > 0
    assert counts["stopped"] == 0


def test_failed_publish_freezes_nothing(small_kb):
    async def scenario():
        gateway = QueryGateway(TaraService(small_kb), pool_size=1)
        gc.unfreeze()
        body = b'{"batches": [[{"items": [1], "time": 0}]]}'
        status, envelope = await gateway.dispatch(
            "POST", "/v1/admin/append", body
        )
        frozen = gc.get_freeze_count()
        enabled = gc.isenabled()
        gateway.aclose()
        return status, envelope, frozen, enabled

    status, envelope, frozen, enabled = asyncio.run(scenario())
    assert status == 400  # a static source accepts no appends
    assert envelope["error"]["code"] == "validation"
    assert frozen == 0
    assert enabled  # the pause ended with the failed publish


def test_served_miss_canonicalizes_once(small_kb, monkeypatch):
    calls = []

    def counting(module):
        original = module.canonicalize

        def canonicalize(*args, **kwargs):
            calls.append(module.__name__)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "canonicalize", canonicalize)

    counting(gateway_module)
    counting(service_module)

    async def scenario():
        gateway = QueryGateway(TaraService(small_kb), pool_size=1)
        per_read = []
        for _ in range(2):  # a miss, then a byte-cache hit
            for query in QUERIES:
                del calls[:]
                status, _ = await gateway.dispatch("POST", *_request(query))
                assert status == 200
                per_read.append(len(calls))
        gateway.aclose()
        return per_read

    assert asyncio.run(scenario()) == [1] * 2 * len(QUERIES)
