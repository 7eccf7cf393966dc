"""Spans around the program's public entry points, and GC pauses.

The traced run wraps the entry points listed in :data:`ENTRY_POINTS`
with span recorders from the benchmark's own code; the program itself
is not edited.  Each span records its name, start, end, parent span and
request id (the id of the root ``QueryGateway.dispatch_wire`` span).
Spans stay in memory and are written out when the run ends.

Two details decide whether the parent links are right:

* ``encode_answer_bytes`` returns an iterator for Q1 and Q5, so its
  span ends when the iterator is exhausted, not when the call returns;
* ``loop.run_in_executor`` does not copy the caller's context into the
  worker thread, so :meth:`SpanRecorder.install` makes the benchmark's
  loop run executor jobs inside a copy of it.

A span's self time is its duration minus the part of that interval its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import asyncio
import contextvars
import gc
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: (module, attribute path, span name) of every wrapped entry point.
#: Functions imported by name are wrapped where the caller binds them.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.gateway", "QueryGateway.dispatch_wire", "gateway.dispatch_wire"),
    ("repro.serve.gateway", "canonicalize", "keys.canonicalize"),
    ("repro.service.service", "canonicalize", "keys.canonicalize"),
    ("repro.serve.gateway", "decode_request", "protocol.decode_request"),
    ("repro.serve.gateway", "encode_answer_bytes", "protocol.encode_answer_bytes"),
    ("repro.serve.respcache", "ResponseCache.lookup", "respcache.lookup"),
    ("repro.serve.coalesce", "RequestCoalescer.run", "coalesce.run"),
    ("repro.service.service", "TaraService.execute_on", "service.execute_on"),
    ("repro.core.explorer", "TaraExplorer.execute", "explorer.execute"),
    ("repro.core.archive", "TarArchive.series", "archive.series"),
    ("repro.core.incremental", "IncrementalTara.publish", "incremental.publish"),
    ("repro.core.builder", "TaraKnowledgeBase.clone", "incremental.clone"),
    ("repro.core.builder", "TaraBuilder.add_windows", "builder.add_windows"),
    ("gzip", "compress", "gzip.compress"),
)

#: The root span of each served request.
ROOT = "gateway.dispatch_wire"
#: Spans whose result is an iterator the caller consumes.
_ITERATOR_SPANS = frozenset({"protocol.encode_answer_bytes"})


@dataclass(frozen=True)
class Span:
    """One timed call.  ``tag`` and ``size`` describe explorer work."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    tag: str = ""
    size: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _explorer_detail(args: Sequence[Any], answer: Any) -> Tuple[str, int]:
    """Query class and number of rules in one explorer answer."""
    query = type(args[1]).__name__
    if query == "TrajectoryQuery":
        return "Q1", len(answer)
    if query == "CompareQuery":
        return "Q2", sum(
            len(diff.only_first) + len(diff.only_second) + len(diff.common)
            for diff in answer.per_window
        )
    if query == "RecommendQuery":
        return "Q3", int(answer.region.ruleset_size)
    if query == "ContentQuery":
        return "Q5", sum(len(ids) for ids in answer.values())
    return query, 0


class SpanRecorder:
    """Wraps entry points, collects spans, and restores everything."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[Tuple[int, Optional[int]]]] = (
            contextvars.ContextVar("tarabench_span", default=None)
        )
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, root: bool) -> Tuple[int, Optional[int], Optional[int], contextvars.Token]:
        parent = self._current.get()
        span_id = next(self._ids)
        request = span_id if root else (parent[1] if parent else None)
        token = self._current.set((span_id, request))
        return span_id, (parent[0] if parent else None), request, token

    def _close(
        self,
        name: str,
        opened: Tuple[int, Optional[int], Optional[int], Any],
        start: float,
        end: float,
        detail: Tuple[str, int] = ("", 0),
    ) -> None:
        span_id, parent, request, _ = opened
        self.spans.append(
            Span(span_id, name, start, end, parent, request, *detail)
        )

    def wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """A span-recording stand-in for *function*."""
        root = name == ROOT
        recorder = self

        if inspect.iscoroutinefunction(function):

            async def async_span(*args: Any, **kwargs: Any) -> Any:
                opened = recorder._open(root)
                start = time.perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    recorder._current.reset(opened[3])
                    recorder._close(name, opened, start, end)

            return async_span

        def span(*args: Any, **kwargs: Any) -> Any:
            opened = recorder._open(root)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                recorder._current.reset(opened[3])
                recorder._close(name, opened, start, time.perf_counter())
                raise
            recorder._current.reset(opened[3])
            if name in _ITERATOR_SPANS:
                return recorder._consume(result, name, opened, start)
            detail = (
                _explorer_detail(args, result)
                if name == "explorer.execute"
                else ("", 0)
            )
            recorder._close(name, opened, start, time.perf_counter(), detail)
            return result

        return span

    def _consume(
        self, inner: Iterable[bytes], name: str, opened: Any, start: float
    ) -> Iterator[bytes]:
        try:
            yield from inner
        finally:
            self._close(name, opened, start, time.perf_counter())

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, loop: asyncio.AbstractEventLoop) -> None:
        """Wrap every entry point and carry context across the pool hop."""
        for module_name, path, name in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = (
                owner.__dict__[attribute]
                if isinstance(owner, type)
                else getattr(owner, attribute)
            )
            setattr(owner, attribute, self.wrap(original, name))
            self._undo.append(
                lambda owner=owner, attribute=attribute, original=original: setattr(
                    owner, attribute, original
                )
            )
        run_in_executor = loop.run_in_executor

        def run_in_context(executor: Any, function: Any, *args: Any) -> Any:
            context = contextvars.copy_context()
            return run_in_executor(executor, context.run, function, *args)

        loop.run_in_executor = run_in_context  # type: ignore[method-assign]
        self._undo.append(lambda: delattr(loop, "run_in_executor"))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
        )
        for low, high in intervals:
            low = max(low, reach)
            if high > low:
                covered += high - low
                reach = high
        result[span.span_id] = span.seconds - covered
    return result


class GcPauses:
    """Collector pause accounting through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_seconds = 0.0
        self.gen2_collections = 0
        self._started: Optional[float] = None

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_seconds += time.perf_counter() - self._started
            self._started = None
            if info.get("generation") == 2:
                self.gen2_collections += 1

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self)

