"""The asyncio network tier: TARA's queries over a socket.

Where :mod:`repro.service` makes query answers cheap to *reuse* (the
region-keyed cache), this layer makes them cheap to *share*: a
stdlib-only asyncio HTTP front door (:class:`TaraServer`) exposes
Q1–Q5 as JSON endpoints over one thread-safe
:class:`repro.service.TaraService`, with request coalescing
(:class:`RequestCoalescer`) collapsing concurrent region-equivalent
requests into a single execution and per-endpoint metrics
(:class:`ServerMetrics`) on a ``/metrics`` route.  An ASGI adapter
(:func:`create_asgi_app`) exposes the identical wire behaviour to
external ASGI servers.

The wire-hot path (PR 10) never re-encodes a warm answer: bodies are
serialized once through :func:`encode_answer_bytes` and cached as
bytes in a :class:`ResponseCache` keyed by ``(region key, echo tag,
encoding)``, with gzip variants, weak ETags → 304 conditional
answers, and chunked streaming for large bodies.

See ``docs/serving.md`` for the wire-protocol reference and the
operations handbook; the served paths are measured by the repository
benchmark in ``perfbench/`` (``docs/benchmarks.md``).
"""

from repro.serve.asgi import AsgiApp, create_asgi_app
from repro.serve.coalesce import RequestCoalescer
from repro.serve.gateway import (
    DEFAULT_POOL_SIZE,
    QueryGateway,
    WireResponse,
    auto_pool_size,
    resolve_pool_size,
)
from repro.serve.httpd import HttpRequest, WireError
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    QUERY_KINDS,
    decode_batches,
    decode_request,
    encode_answer,
    encode_answer_blob,
    encode_answer_bytes,
    encode_batches,
    encode_request,
)
from repro.serve.respcache import (
    DEFAULT_RESPONSE_CACHE_BYTES,
    ResponseCache,
)
from repro.serve.server import (
    DEFAULT_DRAIN_TIMEOUT,
    DEFAULT_PORT,
    ServeConfig,
    TaraServer,
    create_server,
    run_server,
    serve_until_stopped,
)

__all__ = [
    "AsgiApp",
    "DEFAULT_DRAIN_TIMEOUT",
    "DEFAULT_POOL_SIZE",
    "DEFAULT_PORT",
    "DEFAULT_RESPONSE_CACHE_BYTES",
    "HttpRequest",
    "QUERY_KINDS",
    "QueryGateway",
    "RequestCoalescer",
    "ResponseCache",
    "ServeConfig",
    "ServerMetrics",
    "TaraServer",
    "WireError",
    "WireResponse",
    "auto_pool_size",
    "create_asgi_app",
    "create_server",
    "decode_batches",
    "decode_request",
    "encode_answer",
    "encode_answer_blob",
    "encode_answer_bytes",
    "encode_batches",
    "encode_request",
    "resolve_pool_size",
    "run_server",
    "serve_until_stopped",
]
