"""The asyncio HTTP front door of the serving tier.

:class:`TaraServer` binds ``asyncio.start_server`` to a
:class:`repro.serve.gateway.QueryGateway`: connections are parsed by
the minimal HTTP layer (:mod:`repro.serve.httpd`), dispatched through
the gateway, and answered with JSON envelopes over persistent
connections.  Shutdown is graceful by default — :meth:`TaraServer.stop`
stops accepting connections, flips the gateway into draining (new
query requests answer 503 while in-flight ones finish), waits up to
``drain_timeout`` seconds for the in-flight gauge to reach zero, and
only then force-closes what remains.

:func:`run_server` is the blocking entry point behind ``repro serve``:
it installs SIGINT/SIGTERM handlers that trigger the same graceful
stop, so Ctrl-C drains instead of dropping in-flight answers.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass
from typing import Callable, Optional, Set, Tuple

from repro.common.errors import ValidationError
from repro.common.timing import Ticker
from repro.serve.gateway import (
    DEFAULT_POOL_SIZE,
    QueryGateway,
    WireResponse,
    error_payload,
)
from repro.serve.httpd import (
    DEFAULT_MAX_BODY,
    LAST_CHUNK,
    WireError,
    chunk_frames,
    read_request,
    render_head,
    render_response,
)
from repro.serve.respcache import DEFAULT_RESPONSE_CACHE_BYTES
from repro.service.service import ServiceSource, TaraService

#: Default TCP port (unassigned range, stable across docs and tests).
DEFAULT_PORT = 8765

#: Default region-keyed cache capacity of the served service.
DEFAULT_MAX_ENTRIES = 1024

#: Default graceful-shutdown drain window, in seconds.
DEFAULT_DRAIN_TIMEOUT = 5.0

#: Seconds between in-flight gauge polls while draining.
_DRAIN_POLL = 0.01


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one server instance (see docs/serving.md).

    ``port=0`` binds an ephemeral port — the benchmark and the test
    suite use that to run servers concurrently without collisions.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    pool_size: int = DEFAULT_POOL_SIZE
    backlog: int = 100
    max_entries: int = DEFAULT_MAX_ENTRIES
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT
    max_body: int = DEFAULT_MAX_BODY
    response_cache_bytes: int = DEFAULT_RESPONSE_CACHE_BYTES

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValidationError(
                f"pool_size must be >= 1, got {self.pool_size}"
            )
        if self.drain_timeout < 0.0:
            raise ValidationError(
                f"drain_timeout must be >= 0, got {self.drain_timeout}"
            )
        if self.response_cache_bytes < 1:
            raise ValidationError(
                f"response_cache_bytes must be >= 1, "
                f"got {self.response_cache_bytes}"
            )


class TaraServer:
    """One listening socket in front of one :class:`QueryGateway`."""

    def __init__(self, service: TaraService, config: ServeConfig) -> None:
        self._config = config
        self._gateway = QueryGateway(
            service,
            pool_size=config.pool_size,
            response_cache_bytes=config.response_cache_bytes,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._handlers: Set["asyncio.Task[None]"] = set()
        self._stopping = False

    @property
    def gateway(self) -> QueryGateway:
        """The dispatch core (metrics, coalescer, drain state)."""
        return self._gateway

    @property
    def config(self) -> ServeConfig:
        """The configuration the server was built with."""
        return self._config

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound ``(host, port)`` (resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise ValidationError("server is not listening; call start() first")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def start(self) -> None:
        """Bind and start accepting connections (once per server)."""
        if self._server is not None or self._stopping:
            raise ValidationError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self._config.host,
            port=self._config.port,
            backlog=self._config.backlog,
        )

    async def stop(self) -> None:
        """Graceful drain: refuse new work, let in-flight work finish."""
        self._stopping = True
        self._gateway.begin_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            # The asyncio server holds this object's connection handler,
            # a cycle only the cyclic collector would break; dropping it
            # lets reference counting free a stopped server.
            self._server = None
        ticker = Ticker()
        while (
            self._gateway.in_flight
            and ticker.seconds < self._config.drain_timeout
        ):
            await asyncio.sleep(_DRAIN_POLL)
        for writer in list(self._writers):
            writer.close()
        if self._handlers:
            # Closed transports surface as EOF/ConnectionError inside the
            # handlers, which then exit cleanly; awaiting them here keeps
            # loop teardown from cancelling tasks mid-read.
            await asyncio.gather(
                *list(self._handlers), return_exceptions=True
            )
        self._gateway.aclose()

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: WireResponse,
        keep_alive: bool,
    ) -> None:
        """Write one response, chunked or fixed-length.

        Streamed bodies (large encoded answers) go out as chunked
        transfer with a drain per chunk, so a slow client bounds the
        write buffer instead of ballooning it; everything else is a
        fixed-length body whose chunks are written without joining
        (cached blobs are served zero-copy).
        """
        if response.stream and response.chunks:
            writer.write(
                render_head(
                    response.status,
                    chunked=True,
                    keep_alive=keep_alive,
                    extra=response.headers,
                )
            )
            for chunk in response.chunks:
                if not chunk:
                    continue  # an empty chunk would terminate the body
                for frame in chunk_frames(chunk):
                    writer.write(frame)
                await writer.drain()
            writer.write(LAST_CHUNK)
            await writer.drain()
            return
        writer.write(
            render_head(
                response.status,
                content_length=response.content_length,
                keep_alive=keep_alive,
                extra=response.headers,
            )
        )
        for chunk in response.chunks:
            writer.write(chunk)
        await writer.drain()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self._config.max_body
                    )
                except WireError as error:
                    # A mis-framed stream cannot resynchronize: answer
                    # once with the framing status, then hang up.
                    body = json.dumps(
                        error_payload("protocol", str(error))
                    ).encode("utf-8")
                    writer.write(
                        render_response(error.status, body, keep_alive=False)
                    )
                    await writer.drain()
                    return
                if request is None:
                    return  # clean close between requests
                response = await self._gateway.dispatch_wire(
                    request.method,
                    request.target,
                    request.body,
                    request.headers,
                )
                keep_alive = request.keep_alive and not self._stopping
                await self._write_response(writer, response, keep_alive)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            return  # client went away mid-exchange; nothing to answer
        finally:
            if task is not None:
                self._handlers.discard(task)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # the peer reset while we were closing; already done


def create_server(source: ServiceSource, config: ServeConfig) -> TaraServer:
    """Build a server over a fresh :class:`TaraService` for *source*."""
    service = TaraService(source, max_entries=config.max_entries)
    return TaraServer(service, config)


async def serve_until_stopped(
    server: TaraServer,
    *,
    on_ready: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Start *server* and run until SIGINT/SIGTERM, then drain.

    *on_ready* is called with the bound ``(host, port)`` once the socket
    is listening — the CLI uses it to print the address.
    """
    await server.start()
    if on_ready is not None:
        host, port = server.address
        on_ready(host, port)
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop_event.set)
        except NotImplementedError:
            continue  # platform without loop signal handlers
        installed.append(signum)
    try:
        await stop_event.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await server.stop()


def run_server(
    source: ServiceSource,
    config: ServeConfig,
    *,
    on_ready: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Blocking entry point behind ``repro serve``."""
    server = create_server(source, config)
    asyncio.run(serve_until_stopped(server, on_ready=on_ready))
