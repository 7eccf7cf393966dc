"""Request coalescing — concurrent identical queries execute once.

The serving tier's byte cache (:mod:`repro.serve.respcache`)
deduplicates *sequential* identical work once a key has been asked
twice; under concurrency a burst of region-equivalent requests can
still all miss before the first one finishes computing.
:class:`RequestCoalescer` closes that gap: requests are keyed by their
canonical integer region key (:mod:`repro.service.keys`), and while one
execution for a key is in flight every further arrival awaits its
result instead of executing.

Snapshot safety rides on the key itself: generation-scoped queries
embed the epoch of the pinned snapshot in their canonical key, and
epochs are strictly increasing window counts, so a request pinned to a
*newer* snapshot canonicalizes to a different key than any older
in-flight execution and can never attach to its answer — attaching is
only possible between requests pinned to the *same* immutable snapshot.
Epoch-free keys (explicit windows) are publish-immune by the archive's
immutability.  No defensive re-check exists downstream anymore: the
pre-PR-8 gateway re-executed scoped requests when the epoch moved
mid-await, but a pinned snapshot cannot move.

Since PR 10 the shared payload is the *encoded* answer — the supplier
executes the query and serializes it through
:func:`repro.serve.protocol.encode_answer_bytes` in one thread-pool
hop, so followers receive the leader's byte chunks and never re-encode
(each follower only prepends its own envelope prefix, whose
``coalesced`` flag differs).  The coalescer itself is payload-agnostic:
it shares whatever immutable object the supplier returns.

The coalescer is event-loop-confined: all state is touched only from
the owning asyncio loop, so it needs no lock.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, Tuple

from repro.service.keys import CacheKey

#: The (ok, payload) outcome shared between coalesced waiters — carrying
#: failures as values keeps un-awaited futures from warning on teardown.
_Outcome = Tuple[bool, object]


class RequestCoalescer:
    """An in-flight futures map over canonical region keys.

    ``executions`` counts leaders (requests that actually ran their
    supplier); ``hits`` counts followers that were served a leader's
    result.  A failing supplier propagates its exception to the leader
    and re-raises the same exception instance in every follower —
    deliberate, so a burst of identical bad requests costs one
    execution, exactly like a burst of identical good ones.
    """

    def __init__(self) -> None:
        self._inflight: Dict[CacheKey, "asyncio.Future[_Outcome]"] = {}
        self.executions = 0
        self.hits = 0

    @property
    def in_flight(self) -> int:
        """Number of keys with an execution currently in flight."""
        return len(self._inflight)

    def counters(self) -> Dict[str, int]:
        """Snapshot for the metrics route."""
        return {
            "executions": self.executions,
            "hits": self.hits,
            "in_flight": self.in_flight,
        }

    async def run(
        self,
        key: CacheKey,
        supplier: Callable[[], Awaitable[object]],
    ) -> Tuple[object, bool]:
        """Execute *supplier* for *key*, or await the in-flight one.

        Returns ``(answer, coalesced)`` where ``coalesced`` is True when
        this call was served by another request's execution.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.hits += 1
            ok, payload = await existing
            if ok:
                return payload, True
            assert isinstance(payload, BaseException)
            raise payload
        future: "asyncio.Future[_Outcome]" = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[key] = future
        self.executions += 1
        try:
            result = await supplier()
        except BaseException as error:
            future.set_result((False, error))
            raise
        else:
            future.set_result((True, result))
            return result, False
        finally:
            # Removed only after the outcome is set: a request landing in
            # the tiny window between set_result and this delete finds a
            # completed future and resumes immediately, which is correct.
            del self._inflight[key]
