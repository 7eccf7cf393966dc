"""Second-ask admission of the byte cache, through the gateway.

The first miss of a ``(region key, echo)`` key leaves a bodiless ghost
and stores no bytes; the second miss stores the identity blob (and, for
a gzip client, its compressed variant, which answers that ask); from the
third ask on the key is a byte-cache hit.  Every test drives
:meth:`QueryGateway.dispatch_wire` with raw request bytes.
"""

from __future__ import annotations

import asyncio
import gzip
import json
import threading

import pytest

from repro.core import (
    CompareQuery,
    ContentQuery,
    GenerationConfig,
    IncrementalTara,
    ParameterSetting,
    RecommendQuery,
    TrajectoryQuery,
)
from repro.serve.gateway import QueryGateway
from repro.serve.protocol import encode_answer_blob, encode_request
from repro.serve.respcache import ENTRY_OVERHEAD
from repro.service import TaraService

from tests.service.conftest import same_region_setting

SETTING = ParameterSetting(min_support=0.02, min_confidence=0.1)

CLASS_QUERIES = {
    "Q1": TrajectoryQuery(setting=SETTING, anchor_window=0),
    "Q2": CompareQuery(
        first=SETTING,
        second=ParameterSetting(min_support=0.03, min_confidence=0.1),
    ),
    "Q3": RecommendQuery(setting=SETTING),
    "Q5": ContentQuery(setting=SETTING, items=(1, 2)),
}

GZIP_HEADERS = {"accept-encoding": "gzip"}


def request(query):
    kind, payload = encode_request(query)
    return f"/v1/query/{kind}", json.dumps(payload).encode("utf-8")


def served_bytes(response):
    """The response body, gunzipped when it is the gzip variant."""
    if dict(response.headers).get("Content-Encoding") == "gzip":
        return gzip.decompress(response.body)
    return response.body


class TestFirstSecondThirdAsk:
    @pytest.mark.parametrize("accept_gzip", [False, True])
    @pytest.mark.parametrize("query_class", sorted(CLASS_QUERIES))
    def test_ghost_then_store_then_hit(self, small_kb, query_class, accept_gzip):
        query = CLASS_QUERIES[query_class]
        target, body = request(query)
        headers = GZIP_HEADERS if accept_gzip else {}
        service = TaraService(small_kb)
        answer_tail = (
            b'"answer":'
            + encode_answer_blob(query_class, service.uncached(query))
            + b"}"
        )

        executions = []

        async def scenario():
            gateway = QueryGateway(service, pool_size=1)
            steps = [(None, gateway.respcache.counters())]
            try:
                for _ in range(3):
                    response = await gateway.dispatch_wire(
                        "POST", target, body, headers
                    )
                    steps.append((response, gateway.respcache.counters()))
                    executions.append(service.metrics.misses[query_class])
            finally:
                gateway.aclose()
            return steps

        steps = asyncio.run(scenario())
        # The first ask and the admitting ask run the explorer; the
        # third is a byte hit.
        assert executions == [1, 2, 2]
        (_, before), (first, after_first) = steps[0], steps[1]
        (second, after_second), (third, after_third) = steps[2], steps[3]
        # First ask: a ghost, no body.
        assert after_first["stores"] == before["stores"] == 0
        assert after_first["first_sightings"] == before["first_sightings"] + 1
        assert after_first["entries"] == 0
        assert after_first["current_bytes"] == ENTRY_OVERHEAD
        # Second ask: the identity blob, plus one gzip variant.
        assert after_second["stores"] == 1 + int(accept_gzip)
        assert after_second["gzip_variants"] == int(accept_gzip)
        assert after_second["entries"] == 1 + int(accept_gzip)
        assert after_second["first_sightings"] == 1
        # Third ask: served from bytes, nothing stored.
        assert after_third["hits"] == 1 and after_third["misses"] == 2
        assert after_third["stores"] == after_second["stores"]
        envelopes = []
        for response in (first, second, third):
            assert response.status == 200
            raw = served_bytes(response)
            assert raw.endswith(answer_tail)
            envelopes.append(json.loads(raw))
        # A gzip client's second ask is answered with the variant it
        # stored: the same bytes, and the same envelope, as its hits.
        assert [envelope["cached"] for envelope in envelopes] == [
            False,
            accept_gzip,
            True,
        ]
        encodings = [
            dict(response.headers).get("Content-Encoding")
            for response in (first, second, third)
        ]
        if accept_gzip:
            assert encodings == [None, "gzip", "gzip"]
            assert second.body == third.body
        else:
            assert encodings == [None, None, None]
            assert second.body == first.body


class TestGhostRetirement:
    """Ghosts follow the epoch discipline of bodies across a publish."""

    def _publish_between_asks(self, small_windows, query):
        target, body = request(query)

        async def scenario():
            publisher = IncrementalTara(GenerationConfig(0.02, 0.1))
            publisher.publish([small_windows.window(0), small_windows.window(1)])
            service = TaraService(publisher)
            gateway = QueryGateway(service, pool_size=1)
            try:
                first = await gateway.dispatch_wire("POST", target, body)
                service.publish([small_windows.window(2)])
                second = await gateway.dispatch_wire("POST", target, body)
                counters = gateway.respcache.counters()
            finally:
                gateway.aclose()
            return first, second, counters

        first, second, counters = asyncio.run(scenario())
        assert first.status == second.status == 200
        assert json.loads(first.body)["snapshot_epoch"] == 2
        assert json.loads(second.body)["snapshot_epoch"] == 3
        return counters

    def test_epoch_free_ghost_survives_a_publish(self, small_windows):
        # An explicit window names immutable data: the ghost of the
        # first ask admits the second ask after the publish.
        counters = self._publish_between_asks(
            small_windows, RecommendQuery(setting=SETTING, window=0)
        )
        assert counters["first_sightings"] == 1
        assert counters["stores"] == 1

    def test_scoped_ghost_of_a_retired_epoch_is_purged(self, small_windows):
        # The latest-window default is scoped to its epoch: the second
        # ask is a new key, and the retired epoch's ghost is purged
        # without counting as a purged body.
        counters = self._publish_between_asks(
            small_windows, RecommendQuery(setting=SETTING)
        )
        assert counters["first_sightings"] == 2
        assert counters["stores"] == 0
        assert counters["purged_entries"] == 0
        assert counters["purged_epochs"] == 1
        assert counters["current_bytes"] == ENTRY_OVERHEAD


class TestGzipVariantAcrossPublishes:
    def test_variant_of_an_epoch_free_key_follows_the_pin(self, small_windows):
        # The variant holds a whole response, envelope included, so it
        # must not outlive the snapshot epoch its envelope names; the
        # weak ETag names the answer, which an explicit window fixes.
        explicit = request(RecommendQuery(setting=SETTING, window=0))
        scoped = request(RecommendQuery(setting=SETTING))

        async def scenario():
            publisher = IncrementalTara(GenerationConfig(0.02, 0.1))
            publisher.publish([small_windows.window(0), small_windows.window(1)])
            gateway = QueryGateway(TaraService(publisher), pool_size=1)
            try:
                for _ in range(2):
                    before = await gateway.dispatch_wire(
                        "POST", *explicit, GZIP_HEADERS
                    )
                scoped_before = await gateway.dispatch_wire("POST", *scoped)
                publisher.publish([small_windows.window(2)])
                zipped = await gateway.dispatch_wire(
                    "POST", *explicit, GZIP_HEADERS
                )
                identity = await gateway.dispatch_wire("POST", *explicit)
                conditional = {}
                for name, (target, body), response in (
                    ("explicit", explicit, before),
                    ("scoped", scoped, scoped_before),
                ):
                    conditional[name] = await gateway.dispatch_wire(
                        "POST",
                        target,
                        body,
                        {"if-none-match": dict(response.headers)["ETag"]},
                    )
            finally:
                gateway.aclose()
            return before, scoped_before, zipped, identity, conditional

        before, scoped_before, zipped, identity, conditional = asyncio.run(
            scenario()
        )
        assert dict(before.headers).get("Content-Encoding") == "gzip"
        assert json.loads(served_bytes(before))["snapshot_epoch"] == 2
        assert dict(zipped.headers).get("Content-Encoding") == "gzip"
        assert "Content-Encoding" not in dict(identity.headers)
        assert json.loads(identity.body)["snapshot_epoch"] == 3
        assert gzip.decompress(zipped.body) == identity.body
        # An epoch-free answer is unchanged by the publish: 304.
        assert conditional["explicit"].status == 304
        # A scoped key names the latest window of its epoch: 200 and a
        # new validator.
        rescoped = conditional["scoped"]
        assert rescoped.status == 200
        assert json.loads(rescoped.body)["snapshot_epoch"] == 3
        assert (
            dict(rescoped.headers)["ETag"]
            != dict(scoped_before.headers)["ETag"]
        )


class TestRegionEquivalentCallers:
    @pytest.mark.parametrize("accept_gzip", [False, True])
    def test_no_byte_hit_serves_another_callers_floats(
        self, small_kb, accept_gzip
    ):
        # Two settings in the same stable region of every window share
        # their region keys but echo different floats.
        base = ParameterSetting(0.05, 0.3)
        equivalent = same_region_setting(small_kb, base)
        assert equivalent != base
        other = ParameterSetting(0.1, 0.5)
        queries = [
            ("Q2", CompareQuery(first=base, second=other)),
            ("Q2", CompareQuery(first=equivalent, second=other)),
            ("Q3", RecommendQuery(setting=base)),
            ("Q3", RecommendQuery(setting=equivalent)),
        ]
        service = TaraService(small_kb)
        tails = [
            b'"answer":'
            + encode_answer_blob(query_class, service.uncached(query))
            + b"}"
            for query_class, query in queries
        ]
        headers = GZIP_HEADERS if accept_gzip else {}

        async def scenario():
            gateway = QueryGateway(service, pool_size=1)
            served = []
            try:
                for _ in range(3):
                    for _, query in queries:
                        response = await gateway.dispatch_wire(
                            "POST", *request(query), headers
                        )
                        served.append(response)
                hits = gateway.respcache.counters()["hits"]
            finally:
                gateway.aclose()
            return served, hits

        served, hits = asyncio.run(scenario())
        assert hits == len(queries)  # every third ask is a byte hit
        for index, response in enumerate(served):
            assert response.status == 200
            assert served_bytes(response).endswith(tails[index % len(queries)])


class TestFollowersNeverAdmit:
    def test_coalesced_followers_leave_no_ghost_and_store_nothing(
        self, small_kb
    ):
        target, body = request(CLASS_QUERIES["Q1"])

        async def scenario():
            service = TaraService(small_kb)
            gateway = QueryGateway(service, pool_size=4)
            started = threading.Event()
            release = threading.Event()
            original = service.execute_on

            def gated_execute(snapshot, query, canonical):
                started.set()
                release.wait(timeout=5.0)
                return original(snapshot, query, canonical)

            service.execute_on = gated_execute  # instance shadow, test-only
            try:
                tasks = [
                    asyncio.create_task(
                        gateway.dispatch_wire("POST", target, body)
                    )
                    for _ in range(4)
                ]
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 5.0
                )
                while gateway.coalescer.hits < 3:
                    await asyncio.sleep(0)
                release.set()
                responses = await asyncio.gather(*tasks)
            finally:
                gateway.aclose()
            return gateway, responses

        gateway, responses = asyncio.run(scenario())
        assert [response.status for response in responses] == [200] * 4
        assert gateway.coalescer.hits == 3
        counters = gateway.respcache.counters()
        # Had a follower admitted, it would have found the leader's
        # ghost and stored the bytes.
        assert counters["first_sightings"] == 1
        assert counters["stores"] == 0 and counters["entries"] == 0


class TestEvictedGhost:
    def test_needs_two_more_misses_before_its_body_is_stored(self, small_kb):
        service = TaraService(small_kb)
        query = RecommendQuery(setting=SETTING, window=0)
        target, body = request(query)
        # Room for exactly this key's body, or for a handful of ghosts.
        budget = (
            len(encode_answer_blob("Q3", service.uncached(query)))
            + ENTRY_OVERHEAD
        )
        # Same region, different raw floats: distinct keys whose first
        # sightings fill the budget and evict the oldest ghost.
        others = [
            request(
                RecommendQuery(
                    setting=ParameterSetting(0.02, 0.1 + (index + 1) / 10**6),
                    window=0,
                )
            )
            for index in range(budget // ENTRY_OVERHEAD)
        ]

        async def scenario():
            gateway = QueryGateway(
                service, pool_size=1, response_cache_bytes=budget
            )
            counters = []
            try:
                await gateway.dispatch_wire("POST", target, body)
                for other_target, other_body in others:
                    await gateway.dispatch_wire("POST", other_target, other_body)
                for _ in range(3):
                    await gateway.dispatch_wire("POST", target, body)
                    counters.append(gateway.respcache.counters())
            finally:
                gateway.aclose()
            return counters

        again, admitted, hit = asyncio.run(scenario())
        sightings = 1 + len(others)
        # The ghost was evicted: the next miss is a first sighting again.
        assert again["first_sightings"] == sightings + 1
        assert again["stores"] == 0 and again["hits"] == 0
        # The second miss since then stores the body; the next ask hits.
        assert admitted["first_sightings"] == sightings + 1
        assert admitted["stores"] == 1 and admitted["entries"] == 1
        assert hit["hits"] == 1
