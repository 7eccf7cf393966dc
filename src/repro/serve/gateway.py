"""Transport-agnostic routing and dispatch for the serving tier.

:class:`QueryGateway` is the part of the server that is pure
request/response logic: route a ``(method, target, body, headers)``
tuple to a handler, decode the JSON request, coalesce region-equivalent
executions (:mod:`repro.serve.coalesce`), run the query on a thread
pool in front of one shared thread-safe
:class:`repro.service.service.TaraService`, and assemble the response
*bytes*.  Both transports — the asyncio HTTP front door
(:mod:`repro.serve.server`) and the ASGI adapter
(:mod:`repro.serve.asgi`) — delegate here, so wire semantics cannot
drift between them.

Routes::

    GET  /healthz             liveness + drain state + serving epoch
    GET  /metrics             counters, latency histograms, coalescing, gc
    GET  /v1/snapshot         published epoch, window count, refcounts
    POST /v1/query/<kind>     one query; kinds in protocol.QUERY_KINDS
    POST /v1/admin/append     writer path: publish new window batches

Envelope: success is ``{"ok": true, "query_class", "epoch",
"snapshot_epoch", "coalesced", "cached", "answer"}``; every failure is
``{"ok": false, "error": {"code", "message"}}`` with the HTTP status
carrying the family (400 protocol/domain, 404/405 routing, 409 build
in flight, 503 draining, 500 bug).

**The wire-hot path (PR 10).**  Query responses are built from encoded
bytes end to end: answers are serialized once through
:func:`repro.serve.protocol.encode_answer_bytes` (memoized per-rule
fragments, chunked emission) and the resulting blob is stored in a
:class:`repro.serve.respcache.ResponseCache` keyed by ``(region key,
echo tag, encoding)``.  A warm request is a dict probe plus a splice of
``envelope prefix + cached blob + "}"`` — no dict building, no
``json.dumps``.  Coalescing happens at the same byte layer: followers
receive the leader's encoded chunks and only prepend their own
envelope prefix (their ``coalesced`` flag differs), with zero
re-encode.  ``Accept-Encoding: gzip`` clients get a cached
pre-compressed variant (compressed once, on the first gzip-accepting
hit), and conditional requests short-circuit to 304 before any
execution: the weak ETag names ``(query class, region key, echo)``,
and scoped region keys embed the snapshot epoch, so a publish changes
the ETag by construction.

Snapshot consistency: the gateway pins the current MVCC snapshot
*before* decoding work begins, canonicalizes against the pinned view,
coalesces on the canonical key (which embeds the snapshot epoch for
generation-scoped queries, so region-equivalent requests can only ever
share an execution on the *same* snapshot — see
:mod:`repro.serve.coalesce`), executes on the thread pool against the
pinned snapshot, and releases the pin after the answer is encoded.
The response cache observes pinned epochs and purges scoped entries of
retired snapshots (:meth:`ResponseCache.observe_epoch`).

The gateway owns the process's serving-heap policy
(:mod:`repro.common.gcscope`): building it freezes the heap, so the
cyclic collector stops rescanning the loaded knowledge base; each
served publish runs under :func:`~repro.common.gcscope.paused_then_frozen`
(one collection over its own allocations, then its survivors are
frozen too); :meth:`QueryGateway.aclose` unfreezes the heap.  Like the
collector itself, the policy is process-wide.
"""

from __future__ import annotations

import asyncio
import gc
import gzip
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union, cast

from repro.common.errors import (
    BuildInFlightError,
    ProtocolError,
    QueryError,
    ReproError,
    UnknownRuleError,
    UnknownWindowError,
    ValidationError,
)
from repro.common.gcscope import collector_stats, paused_then_frozen
from repro.common.timing import stopwatch
from repro.core.snapshot import Snapshot
from repro.serve.coalesce import RequestCoalescer
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    ENVELOPE_SUFFIX,
    QUERY_KINDS,
    JsonDict,
    decode_batches,
    decode_request,
    dumps_bytes,
    encode_answer_bytes,
    envelope_prefix,
)
from repro.serve.respcache import (
    DEFAULT_RESPONSE_CACHE_BYTES,
    GZIP,
    ResponseCache,
    ResponseKey,
)
from repro.service.keys import canonicalize, echo_tag
from repro.service.service import TaraService

#: Route prefix for the query endpoints.
QUERY_ROUTE_PREFIX = "/v1/query/"

#: Default worker-pool width (threads executing queries).
DEFAULT_POOL_SIZE = 4

#: Bodies at or above this size stream as chunked transfer.
STREAM_THRESHOLD = 64 * 1024

#: Deterministic gzip: fixed mtime (rule R005 — no wall clocks in
#: outputs) so the same body always compresses to the same bytes.
_GZIP_LEVEL = 6

_VARY = ("Vary", "Accept-Encoding")


def auto_pool_size() -> int:
    """Worker threads matched to the host: one per CPU, at least one."""
    return max(1, os.cpu_count() or 1)


def resolve_pool_size(value: Union[int, str]) -> int:
    """Parse a ``--pool-size`` value: a positive integer or ``"auto"``."""
    if isinstance(value, str):
        if value.strip().lower() == "auto":
            return auto_pool_size()
        try:
            value = int(value)
        except ValueError as error:
            raise ValidationError(
                f"pool size must be a positive integer or 'auto', "
                f"got {value!r}"
            ) from error
    if value < 1:
        raise ValidationError(f"pool_size must be >= 1, got {value}")
    return value


def error_payload(code: str, message: str) -> JsonDict:
    """The failure envelope every error response uses."""
    return {"ok": False, "error": {"code": code, "message": message}}


def _error_code(error: ReproError) -> str:
    if isinstance(error, ProtocolError):
        return "protocol"
    if isinstance(error, ValidationError):
        return "validation"
    if isinstance(error, (QueryError, UnknownRuleError, UnknownWindowError)):
        return "query"
    return "error"


def _gzip_bytes(data: bytes) -> bytes:
    """Deterministic compression for cached variants (mtime pinned)."""
    return gzip.compress(data, compresslevel=_GZIP_LEVEL, mtime=0)


def answer_etag(
    query_class: str, key: Tuple[int, ...], echo: Tuple[float, ...]
) -> str:
    """Weak validator for one cacheable response identity.

    Hashes ``(query class, canonical key, echo tag)`` — the canonical
    key embeds the snapshot epoch for generation-scoped queries, so a
    publish rotates the ETag without any bookkeeping.  Weak (``W/``)
    because the identity and gzip encodings of one answer share it.
    """
    material = repr((query_class, key, echo)).encode("utf-8")
    return f'W/"{hashlib.sha256(material).hexdigest()[:32]}"'


def _etag_matches(header: Optional[str], etag: str) -> bool:
    """``If-None-Match`` comparison (weak: ignores the ``W/`` prefix)."""
    if header is None:
        return False
    opaque = etag[2:] if etag.startswith("W/") else etag
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate == "*":
            return True
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == opaque:
            return True
    return False


def _accepts_gzip(headers: Optional[Mapping[str, str]]) -> bool:
    """Minimal ``Accept-Encoding`` negotiation: is gzip acceptable?"""
    if headers is None:
        return False
    accept = headers.get("accept-encoding", "")
    for token in accept.split(","):
        name, _, params = token.strip().partition(";")
        if name.strip().lower() != "gzip":
            continue
        quality = params.replace(" ", "")
        if quality.startswith("q=0") and not quality.startswith("q=0."):
            return False
        return True
    return False


@dataclass(frozen=True)
class WireResponse:
    """One routed response as the transport sees it.

    ``chunks`` concatenated are the body; transports write them
    individually (zero-copy for cached blobs).  ``stream`` asks the
    HTTP front door to frame the body as chunked transfer instead of
    ``Content-Length``.  ``headers`` are extras beyond framing
    (``ETag``, ``Vary``, ``Content-Encoding``).
    """

    status: int
    chunks: Tuple[bytes, ...]
    headers: Tuple[Tuple[str, str], ...] = ()
    stream: bool = False

    @property
    def body(self) -> bytes:
        """The complete body (joins the chunks; tests and compat)."""
        return b"".join(self.chunks)

    @property
    def content_length(self) -> int:
        """Total body size in bytes."""
        return sum(len(chunk) for chunk in self.chunks)


def _json_response(status: int, payload: JsonDict) -> WireResponse:
    return WireResponse(status, (dumps_bytes(payload),))


class QueryGateway:
    """Routes requests onto one shared :class:`TaraService`.

    The gateway itself is event-loop-confined (coalescer map, metrics,
    response cache); only :meth:`TaraService.execute_on` calls, gzip
    compression and publishes cross into the thread pool, and the
    service carries its own lock.  One gateway serves exactly one loop —
    create it from the loop that will dispatch on it.  Construction
    freezes the process heap and :meth:`aclose` unfreezes it (see the
    module docstring).
    """

    def __init__(
        self,
        service: TaraService,
        *,
        pool_size: int = DEFAULT_POOL_SIZE,
        response_cache_bytes: int = DEFAULT_RESPONSE_CACHE_BYTES,
    ) -> None:
        if pool_size < 1:
            raise ValidationError(f"pool_size must be >= 1, got {pool_size}")
        self._service = service
        self._pool = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="tara-serve"
        )
        self.pool_size = pool_size
        self.coalescer = RequestCoalescer()
        self.metrics = ServerMetrics()
        self.respcache = ResponseCache(response_cache_bytes)
        self._draining = False
        # The source is loaded by now: move it out of the collector's
        # reach.  No collection first, so set-up stays O(1).
        gc.freeze()

    @property
    def service(self) -> TaraService:
        """The shared service every worker thread executes against."""
        return self._service

    @property
    def draining(self) -> bool:
        """True once :meth:`begin_drain` was called."""
        return self._draining

    @property
    def in_flight(self) -> int:
        """Requests currently being dispatched (drain watches this)."""
        return self.metrics.in_flight

    def begin_drain(self) -> None:
        """Stop accepting query work; health checks report ``draining``."""
        self._draining = True

    def aclose(self) -> None:
        """Release the worker pool and unfreeze the heap.

        Called after the last request drained.  Unfreezing lets the
        collector reclaim cyclic garbage that formed among frozen
        objects while the gateway served.
        """
        self._pool.shutdown(wait=True)
        gc.unfreeze()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def dispatch_wire(
        self,
        method: str,
        target: str,
        body: bytes,
        headers: Optional[Mapping[str, str]] = None,
    ) -> WireResponse:
        """Serve one request; always returns a :class:`WireResponse`.

        *headers* are the request headers, lower-cased (the HTTP layer
        already normalizes them); ``None`` means "no negotiable
        headers" — identity encoding, no conditional handling.
        """
        endpoint = self._endpoint_label(target)
        self.metrics.enter()
        try:
            with stopwatch() as clock:
                try:
                    response = await self._route(method, target, body, headers)
                except ReproError as error:
                    response = _json_response(
                        400, error_payload(_error_code(error), str(error))
                    )
                except Exception as error:  # repro-lint: disable=R003
                    # The dispatch contract is "every request gets an
                    # envelope": a handler bug must become a 500 response,
                    # not a dropped connection or a dead server loop.
                    response = _json_response(
                        500,
                        error_payload(
                            "internal", f"{type(error).__name__}: {error}"
                        ),
                    )
            self.metrics.observe(endpoint, response.status, clock.seconds)
            return response
        finally:
            self.metrics.exit()

    async def dispatch(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, JsonDict]:
        """Compatibility dispatch: ``(status, decoded envelope)``.

        The pre-PR-10 entry point, kept for in-process callers and
        tests that want the envelope as a dict; the wire transports use
        :meth:`dispatch_wire` and never re-parse response bytes.
        """
        response = await self.dispatch_wire(method, target, body)
        payload: JsonDict = (
            json.loads(response.body) if response.content_length else {}
        )
        return response.status, payload

    def _endpoint_label(self, target: str) -> str:
        if target.startswith(QUERY_ROUTE_PREFIX):
            kind = target[len(QUERY_ROUTE_PREFIX) :]
            if kind in QUERY_KINDS:
                return f"query/{kind}"
        if target in ("/healthz", "/metrics"):
            return target.lstrip("/")
        if target == "/v1/snapshot":
            return "snapshot"
        if target == "/v1/admin/append":
            return "admin/append"
        return "other"

    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        headers: Optional[Mapping[str, str]],
    ) -> WireResponse:
        if target == "/healthz":
            if method != "GET":
                return _json_response(
                    405, error_payload("method", "use GET for /healthz")
                )
            return _json_response(200, self._health())
        if target == "/metrics":
            if method != "GET":
                return _json_response(
                    405, error_payload("method", "use GET for /metrics")
                )
            return _json_response(
                200,
                {
                    "ok": True,
                    "metrics": self.metrics.as_dict(
                        self.coalescer.counters(),
                        respcache=self.respcache.counters(),
                    ),
                    "service": self._service.metrics_snapshot(),
                    "gc": collector_stats(),
                },
            )
        if target == "/v1/snapshot":
            if method != "GET":
                return _json_response(
                    405, error_payload("method", "use GET for /v1/snapshot")
                )
            return _json_response(
                200, {"ok": True, "snapshot": self._service.snapshot_stats()}
            )
        if target == "/v1/admin/append":
            if method != "POST":
                return _json_response(
                    405,
                    error_payload("method", "use POST for /v1/admin/append"),
                )
            if self._draining:
                return _json_response(
                    503, error_payload("draining", "server is draining")
                )
            return await self._append(body)
        if target.startswith(QUERY_ROUTE_PREFIX):
            kind = target[len(QUERY_ROUTE_PREFIX) :]
            if kind not in QUERY_KINDS:
                return _json_response(
                    404,
                    error_payload(
                        "route",
                        f"unknown query kind {kind!r}; "
                        f"expected one of {', '.join(QUERY_KINDS)}",
                    ),
                )
            if method != "POST":
                return _json_response(
                    405,
                    error_payload(
                        "method", f"use POST for {QUERY_ROUTE_PREFIX}{kind}"
                    ),
                )
            if self._draining:
                return _json_response(
                    503, error_payload("draining", "server is draining")
                )
            return await self._query(kind, body, headers)
        return _json_response(
            404, error_payload("route", f"no route for {target!r}")
        )

    def _health(self) -> JsonDict:
        return {
            "ok": True,
            "status": "draining" if self._draining else "serving",
            "epoch": self._service.epoch,
            "windows": self._service.knowledge_base.window_count,
            "uptime_seconds": self.metrics.uptime_seconds,
        }

    # ------------------------------------------------------------------
    # the query path
    # ------------------------------------------------------------------
    def _answer_response(
        self,
        query_class: str,
        epoch: int,
        answer_chunks: Tuple[bytes, ...],
        *,
        coalesced: bool,
        cached: bool,
        etag: Optional[str],
    ) -> WireResponse:
        """Assemble a 200 envelope around already-encoded answer bytes."""
        prefix = envelope_prefix(
            query_class, epoch, coalesced=coalesced, cached=cached
        )
        chunks = (prefix, *answer_chunks, ENVELOPE_SUFFIX)
        headers: Tuple[Tuple[str, str], ...] = ()
        if etag is not None:
            headers = (("ETag", etag), _VARY)
        total = sum(len(chunk) for chunk in chunks)
        return WireResponse(
            200, chunks, headers, stream=total >= STREAM_THRESHOLD
        )

    async def _query(
        self,
        kind: str,
        body: bytes,
        headers: Optional[Mapping[str, str]],
    ) -> WireResponse:
        try:
            payload = json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            # json.loads accepts bytes directly (no decode() copy of the
            # whole body); the JSONDecodeError str() still carries the
            # line/column/char position of the failure.
            return _json_response(
                400,
                error_payload(
                    "protocol", f"request body is not valid JSON: {error}"
                ),
            )
        # ProtocolError (bad shape) and domain errors (unknown window,
        # out-of-range setting) both surface here; dispatch maps them
        # to a 400 envelope with the class-specific code.
        query = decode_request(kind, payload)
        accept_gzip = _accepts_gzip(headers)
        # Pin first: decode, canonicalization, coalescing, and execution
        # all observe this one immutable snapshot, no matter how many
        # publishes land while the request is in flight.
        handle = self._service.pin()
        try:
            snapshot: Snapshot = handle.snapshot
            canonical = canonicalize(
                query, snapshot.knowledge_base, snapshot.epoch
            )
            loop = asyncio.get_running_loop()

            def execute() -> Tuple[bytes, ...]:
                answer = self._service.execute_on(
                    snapshot, query, canonical
                )
                return tuple(
                    encode_answer_bytes(canonical.query_class, answer)
                )

            if canonical.key is None:
                # Roll-up: not region-cacheable, so neither coalescible
                # nor byte-cacheable (answers threshold merged counts).
                chunks = await loop.run_in_executor(self._pool, execute)
                return self._answer_response(
                    canonical.query_class,
                    snapshot.epoch,
                    chunks,
                    coalesced=False,
                    cached=False,
                    etag=None,
                )

            # A pinned epoch advancing past older scoped entries means
            # those snapshots retired — drop their dead bytes.
            self.respcache.observe_epoch(snapshot.epoch)
            echo = echo_tag(query)
            etag = answer_etag(canonical.query_class, canonical.key, echo)
            if headers is not None and _etag_matches(
                headers.get("if-none-match"), etag
            ):
                self.respcache.record_not_modified()
                return WireResponse(304, (), (("ETag", etag), _VARY))

            response_key: ResponseKey = (canonical.key, echo)
            found = self.respcache.lookup(
                response_key, accept_gzip=accept_gzip
            )
            if found is not None and found.encoding == GZIP:
                self.respcache.record_served(len(found.body))
                return WireResponse(
                    200,
                    (found.body,),
                    (("Content-Encoding", "gzip"), ("ETag", etag), _VARY),
                )
            if found is not None:
                blob = found.body
                if accept_gzip:
                    # First gzip-accepting hit: compress the complete
                    # cached-variant body once (off-loop) and store it;
                    # every later gzip client gets the variant above.
                    prefix = envelope_prefix(
                        canonical.query_class,
                        snapshot.epoch,
                        coalesced=False,
                        cached=True,
                    )
                    compressed = await loop.run_in_executor(
                        self._pool,
                        _gzip_bytes,
                        prefix + blob + ENVELOPE_SUFFIX,
                    )
                    self.respcache.put_gzip(
                        response_key, compressed, canonical.epoch
                    )
                    self.respcache.record_served(len(compressed))
                    return WireResponse(
                        200,
                        (compressed,),
                        (
                            ("Content-Encoding", "gzip"),
                            ("ETag", etag),
                            _VARY,
                        ),
                    )
                self.respcache.record_served(len(blob))
                return self._answer_response(
                    canonical.query_class,
                    snapshot.epoch,
                    (blob,),
                    coalesced=False,
                    cached=True,
                    etag=etag,
                )

            # Miss: execute + encode once, coalescing concurrent
            # region-equivalent requests at the encoded-bytes layer —
            # followers receive the leader's chunks with zero re-encode.
            # Scoped keys embed the snapshot epoch, and epochs are
            # strictly increasing window counts, so attaching to an
            # in-flight execution is only possible when both requests
            # pinned the same snapshot.  Epoch-free keys name explicit
            # immutable windows; any snapshot's bytes are the bytes.
            def supplier() -> "asyncio.Future[Tuple[bytes, ...]]":
                return loop.run_in_executor(self._pool, execute)

            shared, coalesced = await self.coalescer.run(
                canonical.key, supplier
            )
            answer_chunks = cast(Tuple[bytes, ...], shared)
            if not coalesced:
                # Only the leader stores: its echo tag matches the bytes
                # it encoded.  (Coalesced followers share the leader's
                # echoed floats, exactly as the pre-PR-10 answer-object
                # sharing did.)
                self.respcache.put(
                    response_key, b"".join(answer_chunks), canonical.epoch
                )
            return self._answer_response(
                canonical.query_class,
                snapshot.epoch,
                answer_chunks,
                coalesced=coalesced,
                cached=False,
                etag=etag,
            )
        finally:
            handle.release()

    async def _append(self, body: bytes) -> WireResponse:
        """The writer path: publish new window batches as one snapshot.

        One writer at a time — a publish racing an in-flight build gets
        HTTP 409 with code ``"building"`` and should retry after the
        current build lands.  Readers are never blocked: they keep
        answering from the predecessor snapshot until the atomic swap.
        """
        try:
            payload = json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return _json_response(
                400,
                error_payload(
                    "protocol", f"request body is not valid JSON: {error}"
                ),
            )
        batches = decode_batches(payload)
        loop = asyncio.get_running_loop()

        def publish() -> Snapshot:
            # No collector pass may rescan history mid-build; afterwards
            # one pass over the young objects, whose survivors freeze.
            with paused_then_frozen():
                return self._service.publish(batches)

        try:
            snapshot = await loop.run_in_executor(self._pool, publish)
        except BuildInFlightError as error:
            return _json_response(409, error_payload("building", str(error)))
        return _json_response(
            200,
            {
                "ok": True,
                "snapshot_epoch": snapshot.epoch,
                "windows": snapshot.window_count,
                "windows_added": len(batches),
            },
        )
