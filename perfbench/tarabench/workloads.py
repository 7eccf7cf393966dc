"""The three workloads: set-up, the closed-loop measured phase, teardown.

The server runs in this process and event loop, started with
``create_server(source, ServeConfig(port=0, pool_size=2))``, and the load
comes from two keep-alive loopback connections of :mod:`tarabench.wire`.
Both connections are closed loops: each waits for an answer before it
sends its next request.

``hot`` and ``explore`` build their knowledge base in a child process
(:mod:`tarabench.offline_job`) and open the saved v2 file lazily.  Their
set-up is repeated :data:`SETUP_REPEATS` times so ``setup_s`` is a
median; the last set-up serves one measured phase: ``hot`` cycles its
requests for ``--seconds``, and each ``explore`` connection walks its
whole seeded tour, whose length ``--seconds`` sets.  ``ingest`` publishes its first eight windows through an
``IncrementalTara`` in this process, because the publisher lives there;
each of its episodes is a fresh set-up followed by the same 24 rounds of
appends and reads, and episodes repeat (at least
:data:`SETUP_REPEATS`) until their measured phases add up to
``--seconds``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import resource
import subprocess
import sys
import time
import zlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.builder import GenerationConfig
from repro.core.incremental import IncrementalTara
from repro.core.persistence import load_knowledge_base
from repro.serve.server import ServeConfig, TaraServer, create_server

from tarabench.inputs import CONF_G, SUPP_G, Inputs, Request, http_request
from tarabench.wire import Connection, Response

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Decoded-series budget of the lazily opened knowledge base.
MEMORY_BUDGET = 262_144
#: Worker threads of the gateway, matching the 2-vCPU host.
POOL_SIZE = 2
#: ingest: reads per round, few enough that they overlap the publish.
READS_PER_ROUND = 3
#: Pause before the writer retries an append answered 409 (it waits for
#: each acknowledgement, so it should never see one).
_CONFLICT_RETRY_S = 0.005
#: Seconds the offline child may take before the run is abandoned.
_OFFLINE_TIMEOUT_S = 150

HEALTHZ = http_request("GET", "/healthz")
METRICS = http_request("GET", "/metrics")
SNAPSHOT = http_request("GET", "/v1/snapshot")


class BenchError(Exception):
    """The run cannot produce a result (set-up failed, not the program's answers)."""


def generation_config() -> GenerationConfig:
    return GenerationConfig(
        min_support=SUPP_G, min_confidence=CONF_G, build_item_index=True
    )


class Sink:
    """Read latencies, and each distinct response spooled to a file.

    A response is distinct by ``(request, status, encoding, body length,
    CRC-32 of the body)``.  The first body of each is written to the
    spool and compared byte for byte after the clock; later ones count
    as occurrences.  Keeping bodies out of the heap keeps
    ``peak_rss_mb`` about the program, not the load generator.
    """

    def __init__(self, spool: Path) -> None:
        # Packed doubles: a fast run sends more reads, and its
        # bookkeeping should not move ``peak_rss_mb``.
        self.latencies = array("d")
        #: When each read of :attr:`latencies` was sent.
        self.starts = array("d")
        self.body_bytes = 0
        self.responses: Dict[Tuple[bytes, int, Optional[str], int, int], List[Any]] = {}
        self._spool = open(spool, "w+b")

    def store(self, request: Request, response: Response) -> None:
        body = response.body
        self.body_bytes += len(body)
        key = (request.raw, response.status, response.encoding, len(body), zlib.crc32(body))
        entry = self.responses.get(key)
        if entry is None:
            self.responses[key] = [request, 1, self._spool.tell()]
            self._spool.write(body)
        else:
            entry[1] += 1

    def bodies(self) -> Iterator[Tuple[Request, int, Optional[str], bytes, int]]:
        """``(request, status, encoding, body, occurrences)`` per distinct response."""
        self._spool.flush()
        for (_, status, encoding, length, _), (request, count, offset) in self.responses.items():
            self._spool.seek(offset)
            yield request, status, encoding, self._spool.read(length), count

    def close(self) -> None:
        self._spool.close()


@dataclass(frozen=True)
class Append:
    """One acknowledged append and the writer's probe read after it."""

    status: int
    epoch: Optional[int]
    append_s: float
    fresh_s: float
    probe: Response


@dataclass
class Phase:
    """One clocked stretch of load and the program's counters around it."""

    started: float
    ended: float
    #: The reads of this phase: ``sink.latencies[reads[0]:reads[1]]``.
    reads: Tuple[int, int]
    metrics_before: Dict[str, Any]
    metrics_after: Dict[str, Any]
    snapshot_before: Dict[str, Any]
    snapshot_after: Dict[str, Any]
    #: ingest: the publisher's ``PhaseTimer`` totals when the phase ends.
    builder_phases: Dict[str, float] = field(default_factory=dict)


@dataclass
class RunRecord:
    """What one run observed; turned into metrics by :mod:`tarabench.report`."""

    workload: str
    sink: Sink
    setup_s: List[float] = field(default_factory=list)
    offline: List[Dict[str, Any]] = field(default_factory=list)
    open_s: List[float] = field(default_factory=list)
    #: One phase for hot and explore, one per episode for ingest.
    phases: List[Phase] = field(default_factory=list)
    appends: List[Append] = field(default_factory=list)
    conflicts: int = 0
    peak_rss_kb: int = 0
    kb_path: Optional[Path] = None
    #: Operations besides the measured reads (health checks, warm-up,
    #: appends), and a message per failure among them.
    side_attempted: int = 0
    side_failures: List[str] = field(default_factory=list)

    @property
    def query_latencies(self) -> List[float]:
        """Every query request of the measured phase: reads and probes."""
        probes = [append.fresh_s - append.append_s for append in self.appends]
        return list(self.sink.latencies) + probes


@dataclass
class Serving:
    """One started server, its source, and the two load connections."""

    server: TaraServer
    connections: List[Connection]
    kb: Any = None
    publisher: Optional[IncrementalTara] = None

    async def close(self) -> None:
        for connection in self.connections:
            await connection.close()
        await self.server.stop()
        if self.kb is not None:
            self.kb.close()


def _offline_job(root: Path, windows_path: Path, kb_path: Path) -> Dict[str, Any]:
    """Build + save the knowledge base in a child process; its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(Path(__file__).resolve().parent.parent)]
    )
    completed = subprocess.run(
        [sys.executable, "-m", "tarabench.offline_job", str(windows_path), str(kb_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=_OFFLINE_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        raise BenchError(f"offline job failed:\n{completed.stderr[-4000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


async def _connect(server: TaraServer, record: RunRecord) -> List[Connection]:
    host, port = server.address
    connections = [await Connection.open(host, port) for _ in range(2)]
    record.side_attempted += 1
    health = await connections[0].exchange(HEALTHZ)
    if health.status != 200:
        record.side_failures.append(f"/healthz answered {health.status}")
    return connections


async def _get_json(connection: Connection, raw: bytes) -> Dict[str, Any]:
    response = await connection.exchange(raw)
    if response.status != 200:
        raise BenchError(f"introspection route answered {response.status}")
    return json.loads(response.body)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
async def _setup_static(
    inputs: Inputs, root: Path, work: Path, attempt: int, record: RunRecord
) -> Serving:
    """Offline child build + save, lazy open, start, healthz (+ hot warm-up)."""
    kb_path = work / f"kb-{attempt}.tara"
    started = time.perf_counter()
    offline = _offline_job(root, work / "windows.json", kb_path)
    opened = time.perf_counter()
    kb = load_knowledge_base(kb_path, memory_budget=MEMORY_BUDGET)
    open_s = time.perf_counter() - opened
    server = create_server(kb, ServeConfig(port=0, pool_size=POOL_SIZE))
    await server.start()
    serving = Serving(server, await _connect(server, record), kb=kb)
    if inputs.workload == "hot":
        # The first ask of each request misses; the second stores its
        # gzip variant, so the measured phase is all byte-cache hits.
        for request in inputs.distinct_requests:
            for _ in range(2):
                record.side_attempted += 1
                response = await serving.connections[0].exchange(request.raw)
                if response.status != 200:
                    record.side_failures.append(
                        f"warm-up {request.kind} answered {response.status}"
                    )
    record.setup_s.append(time.perf_counter() - started)
    record.offline.append(offline)
    record.open_s.append(open_s)
    record.kb_path = kb_path
    return serving


async def _setup_ingest(inputs: Inputs, record: RunRecord) -> Serving:
    """Initial publish of the static windows, start, healthz."""
    started = time.perf_counter()
    publisher = IncrementalTara(generation_config())
    publisher.publish([list(window) for window in inputs.static_windows])
    server = create_server(publisher, ServeConfig(port=0, pool_size=POOL_SIZE))
    await server.start()
    serving = Serving(
        server, await _connect(server, record), publisher=publisher
    )
    record.setup_s.append(time.perf_counter() - started)
    return serving


async def _setup_static_repeated(
    inputs: Inputs, root: Path, work: Path, record: RunRecord, repeats: int
) -> Serving:
    """Set up *repeats* times; tear down all but the last set-up."""
    with open(work / "windows.json", "w", encoding="utf-8") as handle:
        json.dump(
            [[[txn.time, list(txn.items)] for txn in window]
             for window in inputs.static_windows],
            handle,
        )
    serving: Optional[Serving] = None
    for attempt in range(repeats):
        if serving is not None:
            await serving.close()
            serving = None
            gc.collect()
        serving = await _setup_static(inputs, root, work, attempt, record)
    assert serving is not None
    return serving


# ----------------------------------------------------------------------
# the measured phase
# ----------------------------------------------------------------------
async def _drive(
    connection: Connection,
    sequence: Tuple[Request, ...],
    sink: Sink,
    deadline: float = math.inf,
) -> None:
    """Send *sequence* once in a closed loop, or cycle it until *deadline*."""
    index = 0
    while True:
        started = time.perf_counter()
        if started >= deadline:
            return
        if index == len(sequence):
            if deadline == math.inf:
                return
            index = 0
        request = sequence[index]
        index += 1
        response = await connection.exchange(request.raw)
        sink.latencies.append(time.perf_counter() - started)
        sink.starts.append(started)
        sink.store(request, response)


async def _ingest_phase(
    serving: Serving, inputs: Inputs, record: RunRecord, sink: Sink
) -> None:
    """24 rounds: the writer appends a window while the reader refreshes.

    In each round the writer appends one held-back window and, once it is
    acknowledged, sends its probe read; meanwhile the reader refreshes
    the next :data:`READS_PER_ROUND` of its 9 views.  The next round
    starts when both are done, so every run does the same work and the
    reads overlap every publish.  Reads are the reader's; the probes
    measure freshness and are verified, but are not counted as reads.
    """
    assert inputs.probe is not None
    writer, reader = serving.connections

    async def append(body: bytes) -> None:
        sent = time.perf_counter()
        while True:
            record.side_attempted += 1
            ack = await writer.exchange(body)
            if ack.status != 409:
                break
            record.conflicts += 1
            record.side_failures.append("append answered 409")
            await asyncio.sleep(_CONFLICT_RETRY_S)
        acked = time.perf_counter()
        epoch = None
        if ack.status == 200:
            epoch = int(json.loads(ack.body)["snapshot_epoch"])
        else:
            record.side_failures.append(f"append answered {ack.status}")
        probe = await writer.exchange(inputs.probe.raw)
        done = time.perf_counter()
        sink.store(inputs.probe, probe)
        record.appends.append(Append(ack.status, epoch, acked - sent, done - sent, probe))

    cycle = inputs.sequences[0]
    for index, body in enumerate(inputs.appends):
        start = index * READS_PER_ROUND % len(cycle)
        views = cycle[start : start + READS_PER_ROUND]
        await asyncio.gather(append(body), _drive(reader, views, sink))


async def measure(
    serving: Serving, inputs: Inputs, record: RunRecord, seconds: float
) -> Phase:
    """Counters, one clocked closed-loop phase, counters again."""
    control = serving.connections[0]
    metrics_before = await _get_json(control, METRICS)
    snapshot_before = (await _get_json(control, SNAPSHOT))["snapshot"]
    sink = record.sink
    first_read = len(sink.latencies)
    # Every phase enters the clock with the same collector state.
    gc.collect()
    started = time.perf_counter()
    if inputs.workload == "ingest":
        await _ingest_phase(serving, inputs, record, sink)
    else:
        deadline = started + seconds if inputs.workload == "hot" else math.inf
        await asyncio.gather(
            *(
                _drive(connection, sequence, sink, deadline)
                for connection, sequence in zip(serving.connections, inputs.sequences)
            )
        )
    ended = time.perf_counter()
    record.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    phase = Phase(
        started,
        ended,
        (first_read, len(sink.latencies)),
        metrics_before,
        await _get_json(control, METRICS),
        snapshot_before,
        (await _get_json(control, SNAPSHOT))["snapshot"],
    )
    if serving.publisher is not None:
        phase.builder_phases = serving.publisher.knowledge_base.timer.breakdown()
    record.phases.append(phase)
    return phase


async def run(
    inputs: Inputs, root: Path, work: Path, repeats: int, seconds: float
) -> RunRecord:
    """Set up, measure for *seconds* and tear down one workload."""
    record = RunRecord(inputs.workload, Sink(work / "bodies.spool"))
    if inputs.workload != "ingest":
        serving = await _setup_static_repeated(inputs, root, work, record, repeats)
        try:
            await measure(serving, inputs, record, seconds)
        finally:
            await serving.close()
        return record
    measured = 0.0
    while len(record.phases) < repeats or measured < seconds:
        measured += await _episode(inputs, record)
        # The torn-down publisher goes before the next one is built.
        gc.collect()
    return record


async def _episode(inputs: Inputs, record: RunRecord) -> float:
    """One ingest set-up, its 24 rounds, teardown; the measured seconds."""
    serving = await _setup_ingest(inputs, record)
    try:
        phase = await measure(serving, inputs, record, math.inf)
    finally:
        await serving.close()
    return phase.ended - phase.started
