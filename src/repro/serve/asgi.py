"""A stdlib-pure ASGI adapter over the query gateway.

For deployments that already run an ASGI server (uvicorn, hypercorn —
installable via the ``repro[asgi]`` extra; nothing here imports them),
:func:`create_asgi_app` exposes exactly the same routes, envelopes, and
coalescing semantics as the asyncio front door: both transports
delegate to one :class:`repro.serve.gateway.QueryGateway`, so wire
behaviour cannot diverge.

The adapter speaks the ASGI 3 single-callable protocol and handles the
``lifespan`` and ``http`` scopes; anything else (websockets) is
answered with a 404 envelope.  It depends on nothing outside the
standard library, so importing :mod:`repro.serve` never requires the
extra to be installed.
"""

from __future__ import annotations

from typing import Any, Awaitable, Callable, Mapping, MutableMapping

from repro.serve.gateway import DEFAULT_POOL_SIZE, QueryGateway
from repro.service.service import TaraService

#: ASGI 3 message/callable shapes (stdlib spellings; no asgiref import).
Scope = Mapping[str, Any]
Message = MutableMapping[str, Any]
Receive = Callable[[], Awaitable[Message]]
Send = Callable[[Mapping[str, Any]], Awaitable[None]]


class AsgiApp:
    """The ASGI 3 application object; also exposes its gateway."""

    def __init__(
        self,
        service: TaraService,
        *,
        pool_size: int = DEFAULT_POOL_SIZE,
    ) -> None:
        self.gateway = QueryGateway(service, pool_size=pool_size)

    async def __call__(
        self, scope: Scope, receive: Receive, send: Send
    ) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] == "http":
            await self._http(scope, receive, send)
            return
        # Unsupported scope type (e.g. websocket): refuse politely if
        # the scope allows an HTTP-shaped answer; otherwise do nothing.

    async def _lifespan(self, receive: Receive, send: Send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                self.gateway.begin_drain()
                self.gateway.aclose()
                await send({"type": "lifespan.shutdown.complete"})
                return

    async def _http(
        self, scope: Scope, receive: Receive, send: Send
    ) -> None:
        body = b""
        while True:
            message = await receive()
            body += message.get("body", b"")
            if not message.get("more_body", False):
                break
        headers = {
            name.decode("latin-1").lower(): value.decode("latin-1")
            for name, value in scope.get("headers") or ()
        }
        response = await self.gateway.dispatch_wire(
            scope["method"], scope["path"], body, headers
        )
        # Content-Length is always known (the chunks are in hand);
        # chunked framing, if any, is the ASGI server's concern.
        response_headers = [
            (b"content-type", b"application/json"),
            (
                b"content-length",
                str(response.content_length).encode("latin-1"),
            ),
        ]
        for name, value in response.headers:
            response_headers.append(
                (name.lower().encode("latin-1"), value.encode("latin-1"))
            )
        await send(
            {
                "type": "http.response.start",
                "status": response.status,
                "headers": response_headers,
            }
        )
        if not response.chunks:
            await send({"type": "http.response.body", "body": b""})
            return
        for index, chunk in enumerate(response.chunks):
            await send(
                {
                    "type": "http.response.body",
                    "body": chunk,
                    "more_body": index + 1 < len(response.chunks),
                }
            )


def create_asgi_app(
    service: TaraService, *, pool_size: int = DEFAULT_POOL_SIZE
) -> AsgiApp:
    """Build the ASGI application for *service* (``repro[asgi]`` docs)."""
    return AsgiApp(service, pool_size=pool_size)
