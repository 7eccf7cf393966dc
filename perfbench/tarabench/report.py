"""Turn one run's observations into end-to-end and per-layer metrics.

End-to-end metrics come from client clocks and ``ru_maxrss``: the
measured phase is cut into slices (:func:`slices`), and the read metrics
come from the slice that completed reads fastest.  Per-layer metrics
come from counter deltas of ``GET /metrics`` and ``GET /v1/snapshot``
around each measured phase (:func:`counter_layers`), from the knowledge
base's ``PhaseTimer``, from ``gc.callbacks``, and, in the traced run,
from spans (:func:`span_layers`).  A mean or ratio
over zero events reads 0: the layer did no such work in that workload.
``LAYERS.md`` says which end-to-end metric each one should move, and
``BENCHMARK.json`` declares every name with its unit.
"""

from __future__ import annotations

import math
import statistics
import sys
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.core.builder import (
    PHASE_ARCHIVE,
    PHASE_EPS,
    PHASE_ITEMSETS,
    PHASE_RULES,
)

from tarabench.trace import ROOT, Span, self_times
from tarabench.workloads import RunRecord

#: Reads that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: The tail percentile of each workload: the highest with at least
#: :data:`MIN_BEYOND` reads beyond it in a run of ``run_seconds`` (hot
#: about 120,000 reads, explore 4,480, ingest at least 3 x 72).
TAIL = {"hot": 0.99, "explore": 0.99, "ingest": 0.95}
#: Seconds of a slice, long enough to hold the workload's whole mix of
#: requests: hot's 24 cache hits repeat every few milliseconds, while
#: explore's tour needs seconds to cover its settings and anchors.  An
#: ingest slice is one episode (24 rounds of the same work).
SLICE_S = {"hot": 0.5, "explore": 4.0}

_BUILDER_PHASES = {
    "builder.itemsets_s": PHASE_ITEMSETS,
    "builder.rules_s": PHASE_RULES,
    "builder.archive_s": PHASE_ARCHIVE,
    "builder.eps_s": PHASE_EPS,
}


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *values*."""
    ordered = sorted(values)
    return ordered[max(math.ceil(fraction * len(ordered)), 1) - 1]


def _mean(total: float, count: float) -> float:
    return total / count if count else 0.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def slices(record: RunRecord) -> List[Tuple[float, float]]:
    """``(median read latency in s, reads per s)`` of each slice of the run.

    hot and explore cut their measured phase into whole slices of about
    :data:`SLICE_S` seconds by when each read was sent; each ingest
    episode is a slice of its own.
    """
    latencies, starts = record.sink.latencies, record.sink.starts
    if record.workload == "ingest":
        return [
            (
                statistics.median(latencies[phase.reads[0] : phase.reads[1]]),
                (phase.reads[1] - phase.reads[0]) / (phase.ended - phase.started),
            )
            for phase in record.phases
        ]
    (phase,) = record.phases
    count = max(1, round((phase.ended - phase.started) / SLICE_S[record.workload]))
    width = (phase.ended - phase.started) / count
    buckets: List[List[float]] = [[] for _ in range(count)]
    for started, latency in zip(starts, latencies):
        buckets[min(int((started - phase.started) / width), count - 1)].append(latency)
    return [(statistics.median(bucket), len(bucket) / width) for bucket in buckets if bucket]


def end_to_end(record: RunRecord) -> Dict[str, float]:
    """Every end-to-end metric of one run (see ``LAYERS.md``).

    A shared host slows whole stretches of seconds, and noise only ever
    adds time, so the read metrics come from the run's best slice, the
    one that completed reads fastest: ``read_rps`` is its read rate and
    ``read_p50_ms`` its median read latency.
    """
    best_p50, best_rate = max(slices(record), key=lambda pair: pair[1])
    return {
        "setup_s": statistics.median(record.setup_s),
        "read_p50_ms": best_p50 * 1e3,
        "read_rps": best_rate,
        "peak_rss_mb": record.peak_rss_kb / 1024,
    }


def read_tail_ms(record: RunRecord) -> float:
    """The workload's :data:`TAIL` percentile of read latency."""
    latencies = record.sink.latencies
    fraction = TAIL[record.workload]
    beyond = len(latencies) - math.ceil(fraction * len(latencies))
    if beyond < MIN_BEYOND:
        print(
            f"tarabench: only {beyond} reads beyond p{fraction * 100:g}",
            file=sys.stderr,
        )
    return percentile(latencies, fraction) * 1e3


def _delta(after: Mapping[str, Any], before: Mapping[str, Any], *path: str) -> float:
    def dig(node: Any) -> float:
        for key in path:
            node = node.get(key, {}) if isinstance(node, Mapping) else {}
        return float(node) if isinstance(node, (int, float)) else 0.0

    return dig(after) - dig(before)


def _query_latency(metrics: Mapping[str, Any]) -> Tuple[float, float]:
    """(requests, total seconds) over every ``query/*`` endpoint."""
    endpoints = metrics.get("metrics", {}).get("endpoints", {})
    count = total = 0.0
    for name, endpoint in endpoints.items():
        if name.startswith("query/"):
            count += endpoint["latency"]["count"]
            total += endpoint["latency"]["total_seconds"]
    return count, total


def _service_latency(
    metrics: Mapping[str, Any], served_key: str, latency_key: str
) -> Tuple[float, float, float]:
    """(requests, latency count, latency seconds) summed over query classes."""
    classes = metrics.get("service", {}).get("classes", {})
    served = count = total = 0.0
    for stats in classes.values():
        served += stats[served_key]
        count += stats[latency_key]["count"]
        total += stats[latency_key]["total_seconds"]
    return served, count, total


def counter_layers(
    record: RunRecord, gc_pause_s: float, gc_gen2: int
) -> Dict[str, float]:
    """Per-layer metrics from counters, ``PhaseTimer`` and GC callbacks.

    Counter deltas are summed over the run's measured phases.
    """
    phases = record.phases
    queries = record.query_latencies

    def metric(*path: str) -> float:
        return sum(_delta(p.metrics_after, p.metrics_before, *path) for p in phases)

    def summed(pick: Any) -> List[float]:
        """The counters *pick* reads, after minus before, summed over phases."""
        deltas = [
            [high - low for high, low in zip(pick(p.metrics_after), pick(p.metrics_before))]
            for p in phases
        ]
        return [sum(column) for column in zip(*deltas)]

    dispatch_count, dispatch_total = summed(_query_latency)
    dispatch_ms = _mean(dispatch_total, dispatch_count) * 1e3
    client_ms = _mean(sum(queries), len(queries)) * 1e3

    def respcache(name: str) -> float:
        return metric("metrics", "respcache", name)

    def coalesce(name: str) -> float:
        return metric("metrics", "coalesce", name)

    def storage(name: str) -> float:
        return metric("service", "storage", name)

    def snapshot(name: str) -> float:
        return sum(_delta(p.snapshot_after, p.snapshot_before, name) for p in phases)

    service_hits, hit_count, hit_total = summed(
        lambda m: _service_latency(m, "hits", "hit_latency")
    )
    service_misses, miss_count, miss_total = summed(
        lambda m: _service_latency(m, "misses", "miss_latency")
    )
    lru_hits, lru_misses = storage("cache_hits"), storage("cache_misses")
    cache_hits, cache_misses = respcache("hits"), respcache("misses")
    follower_hits = coalesce("hits")

    if record.offline:
        builder: Dict[str, float] = {
            name: _median([job["phases"].get(phase, 0.0) for job in record.offline])
            for name, phase in _BUILDER_PHASES.items()
        }
    else:
        builder = {
            name: _median([p.builder_phases.get(phase, 0.0) for p in phases])
            for name, phase in _BUILDER_PHASES.items()
        }
    storage_after = phases[-1].metrics_after.get("service", {}).get("storage", {})
    return {
        "read.tail_ms": read_tail_ms(record),
        "wire.ms_mean": client_ms - dispatch_ms,
        "gateway.dispatch_ms_mean": dispatch_ms,
        "respcache.hit_ratio": _mean(cache_hits, cache_hits + cache_misses),
        "respcache.evictions": respcache("evictions"),
        "respcache.purged_entries": respcache("purged_entries"),
        "respcache.gzip_variants": respcache("gzip_variants"),
        "respcache.bytes_served_mb": respcache("bytes_served") / 2**20,
        "coalesce.hit_ratio": _mean(
            follower_hits, follower_hits + coalesce("executions")
        ),
        "protocol.body_kb_mean": _mean(record.sink.body_bytes, len(queries)) / 1024,
        "service.hit_ratio": _mean(service_hits, service_hits + service_misses),
        "service.hit_ms_mean": _mean(hit_total, hit_count) * 1e3,
        "service.miss_ms_mean": _mean(miss_total, miss_count) * 1e3,
        "service.evictions": metric("service", "evictions"),
        "service.invalidations": metric("service", "invalidations"),
        "storage.series_decoded": lru_misses,
        "storage.lru_hit_ratio": _mean(lru_hits, lru_hits + lru_misses),
        "storage.lru_evictions": storage("cache_evictions"),
        "storage.lru_peak_kb": float(storage_after.get("cache_peak_bytes", 0)) / 1024,
        "storage.shards_decoded": storage("shards_decoded"),
        "storage.slices_materialized": storage("slices_materialized"),
        "storage.open_s": _median(record.open_s),
        "storage.save_s": _median([job["save_s"] for job in record.offline]),
        "storage.file_kb": _median([job["file_bytes"] for job in record.offline]) / 1024,
        "snapshot.retired": snapshot("retired_snapshots"),
        "snapshot.retired_entries": snapshot("retired_entries"),
        "snapshot.refs_end": float(
            max(p.snapshot_after.get("refs", 0) for p in phases)
        ),
        "incremental.append_ms_p50": _median(
            [append.append_s for append in record.appends]
        ) * 1e3,
        "incremental.fresh_p50_ms": _median(
            [append.fresh_s for append in record.appends]
        ) * 1e3,
        "incremental.conflicts": float(record.conflicts),
        **builder,
        "gc.pause_ms_total": gc_pause_s * 1e3,
        "gc.gen2_collections": float(gc_gen2),
    }


def span_layers(
    spans: Sequence[Span], windows: Sequence[Tuple[float, float]], queries: int
) -> Dict[str, float]:
    """Per-layer metrics from the traced run's spans.

    Spans starting inside a measured phase (one of *windows*) count,
    except ``gzip.ms_total``, which also counts set-up, where ``hot``
    builds its gzip variants.
    """
    measured = [
        span for span in spans
        if any(start <= span.start <= end for start, end in windows)
    ]
    own = self_times(measured)
    by_name: Dict[str, List[Span]] = {}
    for span in measured:
        by_name.setdefault(span.name, []).append(span)

    def durations(name: str) -> List[float]:
        return [span.seconds for span in by_name.get(name, ())]

    def mean_ms(name: str) -> float:
        values = durations(name)
        return _mean(sum(values), len(values)) * 1e3

    decoded = {span.request for span in by_name.get("protocol.decode_request", ())}
    query_roots = [span for span in by_name.get(ROOT, ()) if span.span_id in decoded]
    explorer: Dict[str, List[float]] = {}
    for span in by_name.get("explorer.execute", ()):
        explorer.setdefault(span.tag, []).append(own[span.span_id])
    explorer_spans = by_name.get("explorer.execute", [])
    metrics = {
        "gateway.self_ms_mean": _mean(
            sum(own[span.span_id] for span in query_roots), len(query_roots)
        ) * 1e3,
        "keys.canonicalize_ms_mean": mean_ms("keys.canonicalize"),
        "keys.canonicalize_per_read": _mean(
            len(by_name.get("keys.canonicalize", ())), queries
        ),
        "respcache.lookup_ms_mean": mean_ms("respcache.lookup"),
        "protocol.decode_ms_mean": mean_ms("protocol.decode_request"),
        "protocol.encode_ms_mean": mean_ms("protocol.encode_answer_bytes"),
        "gzip.ms_total": sum(
            span.seconds for span in spans if span.name == "gzip.compress"
        ) * 1e3,
        "explorer.rules_mean": _mean(
            sum(span.size for span in explorer_spans), len(explorer_spans)
        ),
        "archive.series_ms_total": sum(durations("archive.series")) * 1e3,
        "incremental.publish_ms_p50": _median(durations("incremental.publish")) * 1e3,
        "incremental.clone_ms_p50": _median(durations("incremental.clone")) * 1e3,
    }
    for query_class in ("Q1", "Q2", "Q3", "Q5"):
        values = explorer.get(query_class, [])
        metrics[f"explorer.{query_class.lower()}_ms_mean"] = (
            _mean(sum(values), len(values)) * 1e3
        )
    return metrics
