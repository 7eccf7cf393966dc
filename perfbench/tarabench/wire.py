"""A minimal HTTP/1.1 client for the load generator.

It writes pre-encoded request bytes on one keep-alive connection and
reads the response: ``Content-Length`` bodies, chunked bodies
(reassembled) and bodiless 304s.  It shares nothing with the program's
own HTTP code, so an edit to ``repro.serve.httpd`` or
``repro.serve.client`` cannot move the measurement.  Bodies are
returned as received: gzip bodies stay compressed.
"""

from __future__ import annotations

import asyncio
import socket
from dataclasses import dataclass
from typing import Dict, Optional

#: Statuses that carry no body whatever their headers say.
_BODILESS = frozenset({204, 304})


class WireFormatError(Exception):
    """The server sent bytes that are not an HTTP/1.1 response."""


@dataclass(frozen=True)
class Response:
    """One response: status, lower-cased headers, body bytes as sent."""

    status: int
    headers: Dict[str, str]
    body: bytes

    @property
    def encoding(self) -> Optional[str]:
        return self.headers.get("content-encoding")


class Connection:
    """One persistent client connection, used by one task at a time."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(reader, writer)

    async def exchange(self, raw: bytes) -> Response:
        """Send one request and read its complete response."""
        self._writer.write(raw)
        await self._writer.drain()
        return await self._read_response()

    async def _read_response(self) -> Response:
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head[:-4].decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise WireFormatError(f"bad status line {lines[0]!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, separator, value = line.partition(":")
            if not separator:
                raise WireFormatError(f"bad header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        if status in _BODILESS:
            return Response(status, headers, b"")
        if headers.get("transfer-encoding", "").lower() == "chunked":
            return Response(status, headers, await self._read_chunked())
        length = int(headers.get("content-length", "0"))
        body = await self._reader.readexactly(length) if length else b""
        return Response(status, headers, body)

    async def _read_chunked(self) -> bytes:
        parts = []
        while True:
            size_line = await self._reader.readuntil(b"\r\n")
            size = int(size_line.split(b";", 1)[0].strip(), 16)
            if size == 0:
                trailer = await self._reader.readuntil(b"\r\n")
                if trailer != b"\r\n":
                    raise WireFormatError("trailers are not supported")
                return b"".join(parts)
            chunk = await self._reader.readexactly(size + 2)
            if chunk[-2:] != b"\r\n":
                raise WireFormatError("chunk not terminated by CRLF")
            parts.append(chunk[:-2])

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # the server already hung up; nothing left to release
