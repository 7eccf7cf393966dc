"""Verification after the clock stops.

Every distinct served body is compared byte for byte, identity or
gunzipped, with ``encode_answer_blob(class, TaraService.uncached(query))``
at the snapshot epoch the envelope names.  ``hot`` and ``explore`` answer
from one static snapshot, re-opened from the served file; ``ingest``
answers from many, so a second publisher replays the same windows and
is queried at each epoch a body names.  The writer's probe reads must
show their own append (read-your-writes), and ``/v1/snapshot`` must show
``refs`` back at 1 once the load has stopped.
"""

from __future__ import annotations

import gzip
import re
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.core.incremental import IncrementalTara
from repro.core.persistence import load_knowledge_base
from repro.serve.protocol import encode_answer_blob
from repro.service.service import TaraService

from tarabench.inputs import STATIC_WINDOWS, Inputs, Request
from tarabench.workloads import RunRecord, generation_config

_ENVELOPE = re.compile(
    rb'\{"ok":true,"query_class":"(Q[0-9])","epoch":([0-9]+),'
    rb'"snapshot_epoch":([0-9]+),"coalesced":(?:true|false),'
    rb'"cached":(?:true|false),"answer":'
)

#: Query classes each workload must have verified in every run.
CLASSES = {
    "hot": {"Q1", "Q2", "Q3", "Q5"},
    "explore": {"Q1", "Q2", "Q3", "Q5"},
    "ingest": {"Q1", "Q3", "Q5"},
}


class EnvelopeError(ValueError):
    """A 200 body that is not a success envelope."""


def split_envelope(body: bytes) -> Tuple[str, int, bytes]:
    """``(query class, snapshot epoch, answer bytes)`` of a success body."""
    match = _ENVELOPE.match(body)
    if match is None or not body.endswith(b"}"):
        raise EnvelopeError(f"not a success envelope: {body[:120]!r}")
    if match.group(2) != match.group(3):
        raise EnvelopeError("epoch and snapshot_epoch disagree")
    return match.group(1).decode(), int(match.group(3)), body[match.end() : -1]


@dataclass
class Verdict:
    """Operations checked after the clock and the failures among them."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    classes: Set[str] = field(default_factory=set)

    def fail(self, message: str, count: int = 1) -> None:
        self.failures.extend([message] * count)


def _served(record: RunRecord, verdict: Verdict) -> Dict[Tuple[int, bytes], List[Tuple[Request, bytes, int]]]:
    """Decode every distinct response; group the good ones by (epoch, request)."""
    grouped: Dict[Tuple[int, bytes], List[Tuple[Request, bytes, int]]] = {}
    for request, status, encoding, body, count in record.sink.bodies():
        verdict.attempted += count
        if status != 200:
            verdict.fail(f"{request.kind} answered {status}", count)
            continue
        try:
            if encoding == "gzip":
                body = gzip.decompress(body)
            elif encoding is not None:
                raise EnvelopeError(f"unexpected Content-Encoding {encoding!r}")
            query_class, epoch, answer = split_envelope(body)
        except (EnvelopeError, OSError, EOFError, zlib.error) as error:
            verdict.fail(f"{request.kind}: {error}", count)
            continue
        if query_class != request.query_class:
            verdict.fail(f"{request.kind} answered as {query_class}", count)
            continue
        grouped.setdefault((epoch, request.raw), []).append((request, answer, count))
    return grouped


def _compare(
    service: TaraService,
    items: List[Tuple[Request, bytes, int]],
    verdict: Verdict,
) -> None:
    request = items[0][0]
    expected = encode_answer_blob(
        request.query_class, service.uncached(request.query)
    )
    for _, answer, count in items:
        if answer == expected:
            verdict.classes.add(request.query_class)
        else:
            verdict.fail(f"{request.kind} body differs from uncached answer", count)


def verify(record: RunRecord, inputs: Inputs) -> Verdict:
    """Check every served byte, read-your-writes and the pin count."""
    verdict = Verdict()
    grouped = _served(record, verdict)
    if inputs.workload == "ingest":
        _verify_ingest(record, inputs, grouped, verdict)
    else:
        assert record.kb_path is not None
        knowledge_base = load_knowledge_base(record.kb_path)
        try:
            service = TaraService(knowledge_base)
            for (epoch, _), items in grouped.items():
                if epoch != knowledge_base.window_count:
                    verdict.fail(f"static answer at epoch {epoch}", sum(i[2] for i in items))
                    continue
                _compare(service, items, verdict)
        finally:
            knowledge_base.close()
    for phase in record.phases:
        verdict.attempted += 1
        refs = phase.snapshot_after.get("refs")
        if refs != 1:
            verdict.fail(f"snapshot refs {refs} after the load stopped")
    missing = CLASSES[inputs.workload] - verdict.classes
    if missing:
        verdict.fail(f"no verified answer of class {sorted(missing)}")
    return verdict


def _verify_ingest(
    record: RunRecord,
    inputs: Inputs,
    grouped: Dict[Tuple[int, bytes], List[Tuple[Request, bytes, int]]],
    verdict: Verdict,
) -> None:
    for append in record.appends:
        if append.epoch is None or append.probe.status != 200:
            continue  # counted where the append or probe was recorded
        body = append.probe.body
        try:
            _, probe_epoch, _ = split_envelope(body)
        except EnvelopeError:
            continue  # counted as a failed read by _served
        if probe_epoch < append.epoch:
            verdict.fail(
                f"probe read epoch {probe_epoch} after append acked {append.epoch}"
            )
    replay = IncrementalTara(generation_config())
    replay.publish([list(window) for window in inputs.static_windows])
    service = TaraService(replay)
    for epoch in sorted({epoch for epoch, _ in grouped}):
        if not STATIC_WINDOWS <= epoch <= len(inputs.windows):
            count = sum(i[2] for (e, _), items in grouped.items() if e == epoch for i in items)
            verdict.fail(f"answer at impossible epoch {epoch}", count)
            continue
        while replay.window_count < epoch:
            replay.publish([list(inputs.windows[replay.window_count])])
        for (item_epoch, _), items in grouped.items():
            if item_epoch == epoch:
                _compare(service, items, verdict)
