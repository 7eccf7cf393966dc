"""The writer path (`POST /v1/admin/append`) and snapshot introspection.

End-to-end over real sockets: a client publishes window batches into a
running server while other clients read, and the snapshot route exposes
the publisher's state.  The 409 writer-conflict path is made
deterministic by holding the publisher's build flag open from the test;
the overlap of reads and publishes, by holding each build until a read
has completed inside it.
"""

from __future__ import annotations

import asyncio
import threading

from repro.core import (
    CompareQuery,
    ContentQuery,
    GenerationConfig,
    IncrementalTara,
    ParameterSetting,
    RecommendQuery,
    TrajectoryQuery,
)
from repro.serve.protocol import encode_answer
from repro.service import TaraService

from tests.serve.client import ServeClient

CONFIG = GenerationConfig(0.02, 0.1)
#: Q5 needs the TARA-S item index.
INDEXED = GenerationConfig(0.02, 0.1, build_item_index=True)
SETTING = ParameterSetting(min_support=0.03, min_confidence=0.2)

#: The cacheable query classes a reader cycles through.
QUERIES = (
    ("Q1", TrajectoryQuery(setting=SETTING, anchor_window=0)),
    ("Q2", CompareQuery(first=SETTING, second=ParameterSetting(0.05, 0.3))),
    ("Q3", RecommendQuery(setting=SETTING)),
    ("Q5", ContentQuery(setting=SETTING, items=(1, 2))),
)


def _publisher(small_windows, count=2, config=CONFIG) -> IncrementalTara:
    incremental = IncrementalTara(config)
    incremental.publish([small_windows.window(i) for i in range(count)])
    return incremental


class TestAppendRoute:
    def test_append_publishes_and_answers_from_the_new_snapshot(
        self, small_windows, running_server
    ):
        async def scenario():
            incremental = _publisher(small_windows)
            async with running_server(TaraService(incremental)) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                before_status, before = await client.snapshot()
                status, envelope = await client.admin_append(
                    [small_windows.window(2)]
                )
                after_status, after = await client.snapshot()
                query_status, answer = await client.execute(
                    TrajectoryQuery(setting=SETTING, anchor_window=0)
                )
                await client.aclose()
            return (
                before_status, before, status, envelope,
                after_status, after, query_status, answer,
            )

        (
            before_status, before, status, envelope,
            after_status, after, query_status, answer,
        ) = asyncio.run(scenario())
        assert before_status == 200
        assert before["snapshot"]["windows"] == 2
        assert before["snapshot"]["building"] is False
        assert status == 200
        assert envelope["ok"] is True
        assert envelope["snapshot_epoch"] == 3
        assert envelope["windows"] == 3
        assert envelope["windows_added"] == 1
        assert after_status == 200
        assert after["snapshot"]["windows"] == 3
        assert after["snapshot"]["retired_snapshots"] >= 1
        assert query_status == 200
        # The read after the append answers from the new snapshot.
        assert answer["snapshot_epoch"] == 3
        assert {len(t["measures"]) for t in answer["answer"]["trajectories"]} == {3}

    def test_append_while_building_is_409(self, small_windows, running_server):
        async def scenario():
            incremental = _publisher(small_windows)
            async with running_server(
                TaraService(incremental), pool_size=2
            ) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                # Deterministic conflict: claim the writer slot directly,
                # as a concurrent in-flight build would.
                with incremental._lock:
                    incremental._building = True
                try:
                    status, envelope = await client.admin_append(
                        [small_windows.window(2)]
                    )
                finally:
                    with incremental._lock:
                        incremental._building = False
                retry_status, retry = await client.admin_append(
                    [small_windows.window(2)]
                )
                await client.aclose()
            return status, envelope, retry_status, retry

        status, envelope, retry_status, retry = asyncio.run(scenario())
        assert status == 409
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "building"
        # The canonical client reaction — retry once the build lands.
        assert retry_status == 200
        assert retry["windows"] == 3

    def test_malformed_batches_are_400(self, small_windows, running_server):
        async def scenario():
            incremental = _publisher(small_windows)
            async with running_server(TaraService(incremental)) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                results = [
                    await client.request("POST", "/v1/admin/append", body)
                    for body in (
                        {"batches": []},
                        {"batches": [[{"items": [], "time": 0}]]},
                        {"batches": [[{"items": [1], "time": 0, "extra": 1}]]},
                        {"windows": [[]]},
                    )
                ]
                await client.aclose()
            return results

        for status, envelope in asyncio.run(scenario()):
            assert status == 400
            assert envelope["ok"] is False
            assert envelope["error"]["code"] == "protocol"

    def test_static_source_rejects_appends(self, small_kb, running_server):
        async def scenario():
            async with running_server(small_kb) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                status, envelope = await client.request(
                    "POST",
                    "/v1/admin/append",
                    {"batches": [[{"items": [1], "time": 0}]]},
                )
                await client.aclose()
            return status, envelope

        status, envelope = asyncio.run(scenario())
        assert status == 400
        assert envelope["error"]["code"] == "validation"
        assert "static" in envelope["error"]["message"]

    def test_draining_server_rejects_appends(
        self, small_windows, running_server
    ):
        async def scenario():
            incremental = _publisher(small_windows)
            async with running_server(TaraService(incremental)) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                server.gateway.begin_drain()
                status, envelope = await client.admin_append(
                    [small_windows.window(2)]
                )
                await client.aclose()
            return status, envelope

        status, envelope = asyncio.run(scenario())
        assert status == 503
        assert envelope["error"]["code"] == "draining"

    def test_wrong_methods_are_405(self, small_kb, running_server):
        async def scenario():
            async with running_server(small_kb) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                get_append = await client.request("GET", "/v1/admin/append")
                post_snapshot = await client.request(
                    "POST", "/v1/snapshot", {}
                )
                await client.aclose()
            return get_append, post_snapshot

        get_append, post_snapshot = asyncio.run(scenario())
        assert get_append[0] == 405
        assert post_snapshot[0] == 405


class TestReadsDuringIngest:
    def test_reads_overlap_publishes_and_match_serial_rebuilds(
        self, small_windows, running_server
    ):
        held_back = (2, 3)

        async def scenario():
            incremental = _publisher(small_windows, config=INDEXED)
            # Each publish holds inside its build until a reader has
            # completed a request that started after the build began.
            builder = incremental._builder
            add_windows = builder.add_windows
            in_build = threading.Event()
            read_in_build = threading.Event()
            overlapped = []

            def held_add_windows(knowledge_base, batches):
                read_in_build.clear()
                in_build.set()
                overlapped.append(read_in_build.wait(timeout=5.0))
                in_build.clear()
                return add_windows(knowledge_base, batches)

            builder.add_windows = held_add_windows  # instance shadow, test-only
            observed = []
            async with running_server(
                TaraService(incremental), pool_size=4
            ) as server:
                host, port = server.address
                writer = await ServeClient.open(host, port)
                readers = [await ServeClient.open(host, port) for _ in range(2)]
                done = asyncio.Event()

                async def read(client, offset):
                    turn = offset
                    while not done.is_set():
                        query_class, query = QUERIES[turn % len(QUERIES)]
                        started_in_build = in_build.is_set()
                        status, envelope = await client.execute(query)
                        assert status == 200
                        observed.append((query_class, query, envelope))
                        if started_in_build and in_build.is_set():
                            read_in_build.set()
                        turn += 1

                async def write():
                    try:
                        return [
                            await writer.admin_append(
                                [small_windows.window(window)]
                            )
                            for window in held_back
                        ]
                    finally:
                        done.set()

                appends, *_ = await asyncio.gather(
                    write(),
                    *(read(client, turn) for turn, client in enumerate(readers)),
                )
                _, final = await writer.snapshot()
                for client in (writer, *readers):
                    await client.aclose()
            return appends, overlapped, observed, final

        appends, overlapped, observed, final = asyncio.run(scenario())
        # Every held-back window landed, one snapshot per append.
        assert [status for status, _ in appends] == [200, 200]
        assert [envelope["windows"] for _, envelope in appends] == [3, 4]
        # Every publish overlapped at least one completed read.
        assert overlapped == [True, True]
        # Every answer equals a serial rebuild at its snapshot's epoch.
        references = {}
        for epoch in (2, 3, 4):
            rebuild = _publisher(small_windows, epoch, INDEXED)
            references[epoch] = TaraService(rebuild.knowledge_base)
        expected = {}
        for query_class, query, envelope in observed:
            key = (envelope["snapshot_epoch"], query_class)
            if key not in expected:
                expected[key] = encode_answer(
                    query_class, references[key[0]].uncached(query)
                )
            assert envelope["answer"] == expected[key]
        assert {epoch for epoch, _ in expected} >= {2, 4}
        # Quiescent: only the publisher's standing pin remains.
        assert final["snapshot"]["windows"] == 4
        assert final["snapshot"]["refs"] == 1
        assert final["snapshot"]["building"] is False


class TestSnapshotRoute:
    def test_static_source_reports_one_standing_snapshot(
        self, small_kb, running_server
    ):
        async def scenario():
            async with running_server(small_kb) as server:
                host, port = server.address
                client = await ServeClient.open(host, port)
                status, envelope = await client.snapshot()
                await client.aclose()
            return status, envelope

        status, envelope = asyncio.run(scenario())
        assert status == 200
        snapshot = envelope["snapshot"]
        assert snapshot["windows"] == small_kb.window_count
        assert snapshot["building"] is False
        assert snapshot["retired_snapshots"] == 0
        assert snapshot["refs"] >= 1
