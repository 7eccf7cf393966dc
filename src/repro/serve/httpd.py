"""A minimal HTTP/1.1 layer over asyncio streams.

Just enough HTTP for a JSON query service, implemented on
``asyncio.StreamReader``/``StreamWriter`` with the stdlib only:

* request line + headers + ``Content-Length`` bodies (a request
  without a length is treated as bodyless; no trailers, no upgrades);
* ``Transfer-Encoding: chunked`` **response** bodies — the server
  streams large encoded answers chunk by chunk (:func:`render_head`
  with ``chunked=True`` + :func:`chunk_frames` + :data:`LAST_CHUNK`);
* persistent connections per HTTP/1.1 defaults (``Connection: close``
  and HTTP/1.0 close after one exchange);
* hard limits on request-line, header-block, and body sizes, mapped to
  the conventional 4xx statuses.

Framing violations raise :class:`WireError` carrying the HTTP status to
answer with; the connection is closed after an error response because a
mis-framed stream cannot be trusted to resynchronize.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ProtocolError

#: Upper bound on the request line (method + target + version).
MAX_REQUEST_LINE = 8192
#: Upper bound on the header block (sum of header lines).
MAX_HEADER_BYTES = 16384
#: Default upper bound on a request body.
DEFAULT_MAX_BODY = 1_048_576

#: Reason phrases for every status the serving tier emits.
STATUS_PHRASES: Dict[int, str] = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class WireError(ProtocolError):
    """An HTTP framing violation, carrying the status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request: immutable, headers lower-cased."""

    method: str
    target: str
    version: str
    headers: Mapping[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        """Whether the connection persists after this exchange."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


async def read_request(
    reader: asyncio.StreamReader, *, max_body: int = DEFAULT_MAX_BODY
) -> Optional[HttpRequest]:
    """Read one request; ``None`` on a clean EOF before a request line.

    Raises :class:`WireError` on oversized or malformed framing and
    lets transport-level exceptions (``ConnectionError``,
    ``asyncio.IncompleteReadError``) propagate — the connection handler
    treats both as "drop the connection".
    """
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between requests
        raise
    except asyncio.LimitOverrunError as error:
        raise WireError(431, "request line exceeds limit") from error
    if len(line) > MAX_REQUEST_LINE:
        raise WireError(431, "request line exceeds limit")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise WireError(400, "malformed request line")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise WireError(400, f"unsupported protocol version {version!r}")

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            raw = await reader.readuntil(b"\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as error:
            raise WireError(400, "connection closed inside header block") from error
        header_bytes += len(raw)
        if header_bytes > MAX_HEADER_BYTES:
            raise WireError(431, "header block exceeds limit")
        text = raw.decode("latin-1").rstrip("\r\n")
        if not text:
            break
        name, separator, value = text.partition(":")
        if not separator or not name.strip():
            raise WireError(400, f"malformed header line {text!r}")
        headers[name.strip().lower()] = value.strip()

    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as error:
        raise WireError(400, f"bad Content-Length {length_text!r}") from error
    if length < 0:
        raise WireError(400, f"bad Content-Length {length_text!r}")
    if length > max_body:
        raise WireError(413, f"body of {length} bytes exceeds limit {max_body}")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise WireError(400, "connection closed inside body") from error
    return HttpRequest(
        method=method, target=target, version=version, headers=headers, body=body
    )


def render_head(
    status: int,
    *,
    content_length: Optional[int] = None,
    chunked: bool = False,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra: Sequence[Tuple[str, str]] = (),
) -> bytes:
    """Serialize a response head: status line + framing + *extra* headers.

    Exactly one of *content_length* / *chunked* frames the body; passing
    neither renders a bodyless head (304 conditional answers).
    """
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}"]
    if content_length is not None or chunked:
        lines.append(f"Content-Type: {content_type}")
    for name, value in extra:
        lines.append(f"{name}: {value}")
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    else:
        lines.append(f"Content-Length: {content_length or 0}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
) -> bytes:
    """Serialize one complete fixed-length response."""
    head = render_head(
        status,
        content_length=len(body),
        content_type=content_type,
        keep_alive=keep_alive,
    )
    return head + body


def chunk_frames(data: bytes) -> Tuple[bytes, bytes, bytes]:
    """One body chunk as ``(size line, payload, trailing CRLF)``.

    Returned as three pieces so the transport can write the (possibly
    large) payload without copying it into a framed buffer.
    """
    return (b"%X\r\n" % len(data), data, b"\r\n")


#: Terminating zero-length chunk of a chunked body (no trailers).
LAST_CHUNK = b"0\r\n\r\n"
