"""A minimal asyncio HTTP/1.1 client for the serving-tier tests.

:func:`read_response` is the client half of the server's framing layer
(:mod:`repro.serve.httpd`), and :class:`ServeClient` wraps one
persistent connection, JSON envelopes in and out, so the tests talk to
a real :class:`repro.serve.TaraServer` exactly as an external client
would (docs/serving.md shows the equivalent ``curl`` spellings).
"""

from __future__ import annotations

import asyncio
import gzip
import json
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ProtocolError
from repro.core.queries import ExplorerQuery
from repro.data.transactions import Transaction
from repro.serve.httpd import WireError
from repro.serve.protocol import JsonDict, encode_batches, encode_request


async def _read_chunked_body(reader: asyncio.StreamReader) -> bytes:
    """Reassemble a ``Transfer-Encoding: chunked`` body."""
    parts = []
    while True:
        line = await reader.readuntil(b"\n")
        size_text = line.decode("latin-1").strip().split(";", 1)[0]
        try:
            size = int(size_text, 16)
        except ValueError as error:
            raise WireError(400, f"bad chunk size {size_text!r}") from error
        if size == 0:
            await reader.readuntil(b"\n")  # trailing CRLF after last chunk
            return b"".join(parts)
        parts.append(await reader.readexactly(size))
        await reader.readexactly(2)  # CRLF closing this chunk


async def read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Mapping[str, str], bytes]:
    """Read one response as ``(status, headers, body)``.

    Handles both framings the server emits — ``Content-Length`` and
    ``Transfer-Encoding: chunked`` (reassembled into one byte string) —
    plus bodyless 304 conditional answers.
    """
    line = await reader.readuntil(b"\n")
    parts = line.decode("latin-1").strip().split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise WireError(400, f"malformed status line {line!r}")
    try:
        status = int(parts[1])
    except ValueError as error:
        raise WireError(400, f"malformed status code {parts[1]!r}") from error
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readuntil(b"\n")
        text = raw.decode("latin-1").rstrip("\r\n")
        if not text:
            break
        name, _, value = text.partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding", "").lower() == "chunked":
        return status, headers, await _read_chunked_body(reader)
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


class ServeClient:
    """One keep-alive connection to a :class:`repro.serve.server.TaraServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._host = host
        self._port = port
        self._reader = reader
        self._writer = writer
        self._closed = False

    @classmethod
    async def open(cls, host: str, port: int) -> "ServeClient":
        """Connect to ``host:port`` and return a ready client."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(host, port, reader, writer)

    @property
    def closed(self) -> bool:
        """True once the connection is gone (close() or server hangup)."""
        return self._closed

    async def exchange(
        self,
        method: str,
        target: str,
        payload: Optional[JsonDict] = None,
        *,
        accept_gzip: bool = False,
        if_none_match: Optional[str] = None,
        decompress: bool = True,
    ) -> Tuple[int, Mapping[str, str], bytes]:
        """One full exchange: ``(status, response headers, body bytes)``.

        The body is returned decompressed (``Content-Encoding: gzip``
        responses are gunzipped transparently) but otherwise raw, so
        tests can byte-verify served bodies.  ``accept_gzip`` advertises
        gzip; *if_none_match* sends a conditional request (a 304 answer
        has an empty body); ``decompress=False`` returns compressed
        bodies verbatim.  Chunked responses are reassembled by
        :func:`read_response`.
        """
        if self._closed:
            raise ProtocolError("client connection is closed")
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        lines = [
            f"{method} {target} HTTP/1.1",
            f"Host: {self._host}:{self._port}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        if accept_gzip:
            lines.append("Accept-Encoding: gzip")
        if if_none_match is not None:
            lines.append(f"If-None-Match: {if_none_match}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status, headers, raw = await read_response(self._reader)
        if decompress and headers.get("content-encoding", "").lower() == "gzip":
            raw = gzip.decompress(raw)
        if headers.get("connection", "").lower() == "close":
            await self.aclose()
        return status, headers, raw

    async def request(
        self,
        method: str,
        target: str,
        payload: Optional[JsonDict] = None,
    ) -> Tuple[int, Any]:
        """Send one request; returns ``(status, decoded JSON body)``."""
        status, _, raw = await self.exchange(method, target, payload)
        return status, json.loads(raw) if raw else None

    async def query(self, kind: str, payload: JsonDict) -> Tuple[int, Any]:
        """POST one wire-shaped query of endpoint *kind*."""
        return await self.request("POST", f"/v1/query/{kind}", payload)

    async def execute(self, query: ExplorerQuery) -> Tuple[int, Any]:
        """Encode a request dataclass and POST it (client-side protocol)."""
        kind, payload = encode_request(query)
        return await self.query(kind, payload)

    async def admin_append(
        self, batches: Sequence[Sequence[Transaction]]
    ) -> Tuple[int, Any]:
        """POST window batches to the writer path (``/v1/admin/append``).

        A 409 with error code ``"building"`` means another publish is
        in flight; retry after it lands.
        """
        return await self.request(
            "POST", "/v1/admin/append", encode_batches(batches)
        )

    async def snapshot(self) -> Tuple[int, Any]:
        """GET the published-snapshot introspection route."""
        return await self.request("GET", "/v1/snapshot")

    async def healthz(self) -> Tuple[int, Any]:
        """GET the liveness/drain-state route."""
        return await self.request("GET", "/healthz")

    async def metrics(self) -> Tuple[int, Any]:
        """GET the counters/histograms route."""
        return await self.request("GET", "/metrics")

    async def aclose(self) -> None:
        """Close the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # the peer already hung up; the socket is gone either way
