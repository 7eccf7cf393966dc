"""The load generator's HTTP client against the in-process server."""

from __future__ import annotations

import asyncio
import gzip
from typing import Any, List

from repro.core.queries import RecommendQuery, TrajectoryQuery
from repro.core.regions import ParameterSetting
from repro.serve.protocol import encode_answer_blob
from repro.serve.server import ServeConfig, create_server
from repro.service.service import TaraService

from tarabench.inputs import http_request, query_request
from tarabench.verify import split_envelope
from tarabench.wire import Connection, Response

LOOSE = ParameterSetting(0.01, 0.3)
TIMEOUT_S = 120


def _exchange(knowledge_base: Any, raws: List[bytes]) -> List[Response]:
    async def main() -> List[Response]:
        server = create_server(knowledge_base, ServeConfig(port=0, pool_size=2))
        await server.start()
        connection = await Connection.open(*server.address)
        try:
            return [await connection.exchange(raw) for raw in raws]
        finally:
            await connection.close()
            await server.stop()

    return asyncio.run(asyncio.wait_for(main(), TIMEOUT_S))


def test_chunked_q1_body_is_reassembled(small_kb: Any) -> None:
    request = query_request(TrajectoryQuery(setting=LOOSE, anchor_window=1))
    (response,) = _exchange(small_kb, [request.raw])
    assert response.status == 200
    assert response.headers["transfer-encoding"] == "chunked"
    query_class, epoch, answer = split_envelope(response.body)
    assert (query_class, epoch) == ("Q1", small_kb.window_count)
    expected = encode_answer_blob(
        "Q1", TaraService(small_kb).uncached(request.query)
    )
    assert len(answer) >= 64 * 1024
    assert answer == expected


def test_gzip_variant_and_not_modified(small_kb: Any) -> None:
    request = query_request(
        RecommendQuery(setting=LOOSE, window=2), gzip=True
    )
    first, second = _exchange(small_kb, [request.raw, request.raw])
    assert first.status == second.status == 200
    assert first.encoding is None  # the miss answers identity
    assert second.encoding == "gzip"
    assert split_envelope(gzip.decompress(second.body))[2] == split_envelope(
        first.body
    )[2]
    conditional = request.raw.replace(
        b"Accept-Encoding: gzip",
        b"Accept-Encoding: gzip\r\nIf-None-Match: " + first.headers["etag"].encode(),
    )
    (not_modified,) = _exchange(small_kb, [conditional])
    assert not_modified.status == 304
    assert not_modified.body == b""


def test_health_check_content_length_body(small_kb: Any) -> None:
    (response,) = _exchange(small_kb, [http_request("GET", "/healthz")])
    assert response.status == 200
    assert b'"status":"serving"' in response.body.replace(b" ", b"")
