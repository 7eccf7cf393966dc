"""Coalescing and snapshot-consistency guarantees, end to end.

These tests pin the two serving-tier invariants that cannot be seen
from a single request:

* a concurrent burst of region-identical requests executes **once**
  (the coalescer collapses it) and every response carries the same
  answer;
* a publish landing while a generation-scoped request is in flight
  never changes the request's answer — the request executes against
  the snapshot it pinned, and the envelope's ``snapshot_epoch`` names
  exactly which one.

Determinism: the tests shadow ``service.execute_on`` on the instance
with a wrapper that blocks (or publishes) mid-flight, so the overlap
window is guaranteed rather than hoped for.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

from repro.core import (
    GenerationConfig,
    IncrementalTara,
    ParameterSetting,
    TrajectoryQuery,
)
from repro.serve import ServeClient
from repro.serve.gateway import QueryGateway
from repro.serve.protocol import encode_answer, encode_request
from repro.service import TaraService

SETTING = ParameterSetting(min_support=0.03, min_confidence=0.2)


def _request_bytes(query):
    kind, payload = encode_request(query)
    return f"/v1/query/{kind}", json.dumps(payload).encode("utf-8")


def test_concurrent_identical_requests_coalesce(small_kb):
    async def scenario():
        service = TaraService(small_kb)
        gateway = QueryGateway(service, pool_size=4)
        started = threading.Event()
        release = threading.Event()
        executions = []
        original = service.execute_on

        def gated_execute(snapshot, query, canonical):
            executions.append(1)
            started.set()
            release.wait(timeout=5.0)
            return original(snapshot, query, canonical)

        service.execute_on = gated_execute  # instance shadow, test-only
        target, body = _request_bytes(
            TrajectoryQuery(setting=SETTING, anchor_window=0)
        )
        tasks = [
            asyncio.create_task(gateway.dispatch("POST", target, body))
            for _ in range(6)
        ]
        # Wait until the leader is inside the (blocked) execution, then
        # give the followers a loop turn to join the in-flight future.
        await asyncio.get_running_loop().run_in_executor(
            None, started.wait, 5.0
        )
        while gateway.coalescer.hits < 5:
            await asyncio.sleep(0)
        release.set()
        results = await asyncio.gather(*tasks)
        gateway.aclose()
        return gateway, executions, results

    gateway, executions, results = asyncio.run(scenario())
    assert len(executions) == 1
    assert gateway.coalescer.executions == 1
    assert gateway.coalescer.hits == 5
    statuses = [status for status, _ in results]
    assert statuses == [200] * 6
    answers = [envelope["answer"] for _, envelope in results]
    assert all(answer == answers[0] for answer in answers)
    coalesced = sorted(envelope["coalesced"] for _, envelope in results)
    assert coalesced == [False, True, True, True, True, True]


def test_publish_mid_flight_never_changes_the_pinned_answer(small_windows):
    async def scenario():
        incremental = IncrementalTara(GenerationConfig(0.02, 0.1))
        incremental.publish(
            [small_windows.window(0), small_windows.window(1)]
        )
        service = TaraService(incremental)
        gateway = QueryGateway(service, pool_size=2)
        original = service.execute_on
        raced = []

        def racing_execute(snapshot, query, canonical):
            # The publish lands after the gateway pinned its snapshot
            # (epoch 2) but before the execution returns: exactly the
            # race the pinned handle exists to make unobservable.
            if not raced:
                raced.append(True)
                incremental.publish([small_windows.window(2)])
            return original(snapshot, query, canonical)

        service.execute_on = racing_execute  # instance shadow, test-only
        # spec=None => generation-scoped: resolves to "all windows" of
        # the pinned snapshot.
        query = TrajectoryQuery(setting=SETTING, anchor_window=0)
        target, body = _request_bytes(query)
        status, envelope = await gateway.dispatch("POST", target, body)
        gateway.aclose()
        # A serial rebuild at the pinned snapshot's window count is the
        # reference the served answer must be identical to.
        reference = IncrementalTara(GenerationConfig(0.02, 0.1))
        reference.publish(
            [small_windows.window(0), small_windows.window(1)]
        )
        expected = encode_answer(
            "Q1", TaraService(reference.knowledge_base).uncached(query)
        )
        return status, envelope, service.epoch, expected

    status, envelope, epoch, expected = asyncio.run(scenario())
    assert status == 200
    assert epoch == 3  # the publish landed mid-flight...
    assert envelope["snapshot_epoch"] == 2  # ...but the request stayed pinned
    assert envelope["epoch"] == 2  # frozen compatibility name, same value
    assert envelope["coalesced"] is False
    # The served answer equals the serial rebuild at two windows: the
    # appended window 2 is invisible to the pinned request.
    assert envelope["answer"] == expected
    assert envelope["answer"]["trajectories"]
    assert all(
        "2" not in row["measures"]
        for row in envelope["answer"]["trajectories"]
    )


def test_graceful_drain_finishes_in_flight_requests(
    small_kb, running_server
):
    async def scenario():
        service = TaraService(small_kb)
        original = service.execute_on

        def slow_execute(snapshot, query, canonical):
            time.sleep(0.2)
            return original(snapshot, query, canonical)

        service.execute_on = slow_execute  # instance shadow, test-only
        async with running_server(service, drain_timeout=5.0) as server:
            host, port = server.address
            client = await ServeClient.open(host, port)
            in_flight = asyncio.create_task(
                client.execute(TrajectoryQuery(setting=SETTING, anchor_window=0))
            )
            while server.gateway.in_flight == 0:
                await asyncio.sleep(0.005)
            stop = asyncio.create_task(server.stop())
            status, envelope = await in_flight
            await stop
            await client.aclose()
            # Drained: new connections are refused.
            try:
                await asyncio.open_connection(host, port)
                refused = False
            except (ConnectionError, OSError):
                refused = True
            return status, envelope, refused

    status, envelope, refused = asyncio.run(scenario())
    assert status == 200  # the in-flight request completed during drain
    assert envelope["ok"] is True
    assert refused


def test_draining_gateway_rejects_new_queries(small_kb, running_server):
    async def scenario():
        async with running_server(small_kb) as server:
            host, port = server.address
            client = await ServeClient.open(host, port)
            try:
                server.gateway.begin_drain()
                health_status, health = await client.healthz()
                status, envelope = await client.execute(
                    TrajectoryQuery(setting=SETTING, anchor_window=0)
                )
            finally:
                await client.aclose()
        return health_status, health, status, envelope

    health_status, health, status, envelope = asyncio.run(scenario())
    assert health_status == 200  # health stays observable while draining
    assert health["status"] == "draining"
    assert status == 503
    assert envelope["error"]["code"] == "draining"
