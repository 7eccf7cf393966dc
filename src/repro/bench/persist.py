"""``repro bench-persist`` — the persistence/storage performance harness.

Measures what the format-v2 container actually buys: for the retail
workload at 1x and 10x scale it builds one knowledge base, saves it in
both formats, then — **in a fresh child process per loader, so peak RSS
is attributable** (each child reads its own ``VmHWM``, see
:func:`_peak_rss_bytes`) — loads it eagerly (v1) and lazily (v2 under a
``--memory-budget``), runs the Q1-Q5 probe suite cold and warm, and
fingerprints every answer.

Two gates run before anything is written:

* every loader's answer fingerprint must be identical at every scale —
  the lazy scatter-gather path is not allowed to drift from the
  monolithic loader by a single byte of ``repr``;
* at gated scales (10x and above) the v2-lazy loader's peak RSS must be
  *strictly below* v1-eager's — the whole point of the container.

A violated gate aborts with a nonzero exit instead of recording a lie,
mirroring ``repro bench``'s fingerprint discipline.

Schema of ``BENCH_persist.json`` (``repro-bench-persist/1``)
============================================================

``schema``
    The literal string ``"repro-bench-persist/1"``.
``version`` / ``quick`` / ``host``
    As in ``BENCH_offline.json`` (no wall date — clock isolation,
    rule R005).
``memory_budget`` / ``shard_size`` / ``scales``
    The knobs the run used.
``results``
    One object per scale::

        {"scale", "transactions", "windows", "rules", "archive_entries",
         "file_bytes": {"v1": ..., "v2": ...},
         "loaders": {
            "v1-eager": {"load_seconds", "peak_rss_bytes",
                         "cold_seconds": {probe: s}, "warm_seconds": {...},
                         "fingerprint", "storage": null},
            "v2-lazy":  {... same, "storage": reader counters}},
         "rss_gated": bool,          # was the strict RSS gate applied?
         "rss_ratio": v2_peak / v1_peak}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro._version import __version__
from repro.common.errors import ValidationError
from repro.common.timing import stopwatch
from repro.core import (
    GenerationConfig,
    LazyTaraKnowledgeBase,
    ParameterSetting,
    TaraExplorer,
    build_knowledge_base,
    load_knowledge_base,
    save_knowledge_base,
)
from repro.core.queries import (
    CompareQuery,
    ContentQuery,
    ExplorerQuery,
    RecommendQuery,
    RollupQuery,
    TrajectoryQuery,
)
from repro.core.storage.format import DEFAULT_SHARD_SIZE
from repro.data import PeriodSpec, WindowedDatabase
from repro.datagen import retail_dataset
from repro.bench.workloads import _WORKLOADS

SCHEMA = "repro-bench-persist/1"
DEFAULT_OUT = "BENCH_persist.json"

#: Decoded-series LRU budget for the v2-lazy loader (bytes).
DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024

#: Scales at and above which the strict peak-RSS gate applies; below it
#: the interpreter's own footprint dominates and the comparison is
#: noise (still recorded, never gated).
RSS_GATE_MIN_SCALE = 10

_RETAIL_SEED = 11


#: Windows the probe session touches (the trailing region).
PROBE_REGION_WINDOWS = 3


def probe_queries(
    window_count: int, min_support: float, min_confidence: float
) -> List[Tuple[str, ExplorerQuery]]:
    """The fixed Q1-Q5 probe suite against one knowledge base.

    The suite models one *interactive session*: every query carries a
    :class:`PeriodSpec` scoped to the trailing
    :data:`PROBE_REGION_WINDOWS` windows, the same region-scoped shape
    the service cache keys on.  That scoping is what the lazy loader is
    for — an eager load pays for all windows regardless, a lazy load
    only materializes the region the analyst is looking at.  Settings
    are fixed multiples of the KB's own generation thresholds, sitting
    just above them so every probe returns non-trivial answers at every
    scale.
    """
    first = max(0, window_count - PROBE_REGION_WINDOWS)
    region = PeriodSpec(range(first, window_count))
    mid = ParameterSetting(min_support * 1.2, min_confidence * 1.17)
    return [
        (
            "Q1-trajectory",
            TrajectoryQuery(
                setting=mid, anchor_window=window_count - 1, spec=region
            ),
        ),
        (
            "Q2-compare",
            CompareQuery(
                first=mid,
                second=ParameterSetting(
                    min_support * 1.5, min_confidence * 1.33
                ),
                spec=region,
            ),
        ),
        ("Q3-recommend", RecommendQuery(setting=mid, window=window_count - 1)),
        (
            "Q4-rollup",
            RollupQuery(
                setting=ParameterSetting(
                    min_support * 1.2, min_confidence * 1.1
                ),
                spec=region,
            ),
        ),
        (
            "Q5-content",
            ContentQuery(
                setting=ParameterSetting(min_support, min_confidence),
                items=(1, 2, 3),
                spec=region,
            ),
        ),
    ]


def _peak_rss_bytes() -> int:
    """This process's own peak resident set size in bytes.

    On Linux it is ``VmHWM`` from ``/proc/self/status``, the high-water
    mark of this address space, which starts afresh at exec: a probe
    child reports its loader's peak alone.  ``ru_maxrss`` does not — a
    ``subprocess`` child inherits its parent's value across fork and
    exec, so it would floor every probe at the harness's own RSS.  It
    stays the fallback where ``/proc`` is absent (kibibytes on Linux,
    bytes on macOS).
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def probe_main(argv: Sequence[str]) -> int:
    """Child-process entry: load one KB, probe it, print a JSON report.

    ``argv`` is ``[kb_path, memory_budget_or_none]``.  Everything the
    parent needs comes back as one JSON line on stdout; the exit code
    is nonzero on any failure (the parent treats that as fatal).
    """
    kb_path, budget_text = argv
    budget = None if budget_text == "none" else int(budget_text)
    with stopwatch() as load_clock:
        knowledge_base = load_knowledge_base(kb_path, memory_budget=budget)
    explorer = TaraExplorer(knowledge_base)
    queries = probe_queries(
        knowledge_base.window_count,
        knowledge_base.config.min_support,
        knowledge_base.config.min_confidence,
    )
    digest = hashlib.sha256()
    cold: Dict[str, float] = {}
    for name, query in queries:
        with stopwatch() as clock:
            answer = explorer.execute(query)
        cold[name] = clock.seconds
        digest.update(name.encode())
        digest.update(repr(answer).encode())
    warm: Dict[str, float] = {}
    for name, query in queries:
        with stopwatch() as clock:
            explorer.execute(query)
        warm[name] = clock.seconds
    storage = (
        knowledge_base.storage_counters()
        if isinstance(knowledge_base, LazyTaraKnowledgeBase)
        else None
    )
    report = {
        "load_seconds": load_clock.seconds,
        "peak_rss_bytes": _peak_rss_bytes(),
        "cold_seconds": cold,
        "warm_seconds": warm,
        "fingerprint": digest.hexdigest(),
        "storage": storage,
    }
    print(json.dumps(report))
    return 0


def _run_probe_child(kb_path: Path, budget: Optional[int]) -> Dict[str, Any]:
    """Run :func:`probe_main` in a fresh interpreter; parse its report."""
    package_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else os.pathsep.join([package_root, existing])
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from repro.bench.persist import probe_main; "
            "sys.exit(probe_main(sys.argv[1:]))",
            str(kb_path),
            "none" if budget is None else str(budget),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        raise ValidationError(
            f"loader probe for {kb_path} failed "
            f"(exit {completed.returncode}): {completed.stderr.strip()}"
        )
    report: Dict[str, Any] = json.loads(completed.stdout.splitlines()[-1])
    return report


def run_persist_matrix(
    scales: Sequence[int],
    memory_budget: int,
    shard_size: int,
) -> List[Dict[str, Any]]:
    """Build, save, and probe the retail workload at every scale.

    Raises :class:`ValidationError` on a fingerprint mismatch at any
    scale, or on a peak-RSS gate violation at gated scales.
    """
    base_transactions, base_windows, min_support, min_confidence = (
        _WORKLOADS["retail"]
    )
    results: List[Dict[str, Any]] = []
    for scale in scales:
        # Scaling a *temporal* workload means a longer history: scale
        # the transaction stream and the window count together, so the
        # per-window statistics stay fixed while the archive grows.
        # The probe session still touches only the trailing region —
        # exactly the asymmetry the lazy container exists to exploit.
        transactions = base_transactions * scale
        window_count = base_windows * scale
        print(f"  scale {scale}x: building retail KB ({transactions} txns, "
              f"{window_count} windows)")
        database = retail_dataset(
            transaction_count=transactions, seed=_RETAIL_SEED
        )
        windows = WindowedDatabase.partition_by_count(database, window_count)
        config = GenerationConfig(
            min_support=min_support,
            min_confidence=min_confidence,
            build_item_index=True,
        )
        knowledge_base = build_knowledge_base(windows, config)

        with tempfile.TemporaryDirectory(prefix="bench-persist-") as tmp:
            v1_path = Path(tmp) / "kb.v1.json"
            v2_path = Path(tmp) / "kb.tara2"
            v1_bytes = save_knowledge_base(
                knowledge_base, v1_path, format_version=1
            )
            v2_bytes = save_knowledge_base(
                knowledge_base, v2_path, shard_size=shard_size
            )

            loaders = {
                "v1-eager": _run_probe_child(v1_path, None),
                "v2-lazy": _run_probe_child(v2_path, memory_budget),
            }

        eager = loaders["v1-eager"]
        lazy = loaders["v2-lazy"]
        if eager["fingerprint"] != lazy["fingerprint"]:
            raise ValidationError(
                f"scale {scale}x: v2-lazy answers diverged from v1-eager "
                f"(fingerprint mismatch) — refusing to record benchmark "
                f"results"
            )
        rss_gated = scale >= RSS_GATE_MIN_SCALE
        rss_ratio = lazy["peak_rss_bytes"] / eager["peak_rss_bytes"]
        if rss_gated and rss_ratio >= 1.0:
            raise ValidationError(
                f"scale {scale}x: v2-lazy peak RSS "
                f"{lazy['peak_rss_bytes']} is not strictly below v1-eager's "
                f"{eager['peak_rss_bytes']} — memory-bound gate violated"
            )
        for name, report in loaders.items():
            print(
                f"    {name:<9} load={report['load_seconds'] * 1e3:8.1f} ms  "
                f"peak_rss={report['peak_rss_bytes'] / 1e6:7.1f} MB  "
                f"cold_Q1={report['cold_seconds']['Q1-trajectory'] * 1e3:7.1f} ms"
            )
        print(f"    rss ratio v2/v1: {rss_ratio:.3f}"
              + ("  (gated)" if rss_gated else ""))
        results.append(
            {
                "scale": scale,
                "transactions": transactions,
                "windows": window_count,
                "rules": len(knowledge_base.catalog),
                "archive_entries": knowledge_base.archive.entry_count(),
                "file_bytes": {"v1": v1_bytes, "v2": v2_bytes},
                "loaders": loaders,
                "rss_gated": rss_gated,
                "rss_ratio": rss_ratio,
            }
        )
    return results


def persist_summary_markdown(results: Sequence[Dict[str, Any]]) -> str:
    """Render the loader comparison as a Markdown table for CI summaries."""
    lines = [
        "## repro bench-persist — eager v1 vs lazy v2",
        "",
        "| scale | loader | load (s) | peak RSS (MB) | cold Q1 (ms) | "
        "warm Q1 (ms) | file (MB) |",
        "|---:|---|---:|---:|---:|---:|---:|",
    ]
    for cell in results:
        for name in ("v1-eager", "v2-lazy"):
            report = cell["loaders"][name]
            file_bytes = cell["file_bytes"]["v1" if name == "v1-eager" else "v2"]
            lines.append(
                f"| {cell['scale']}x | {name} "
                f"| {report['load_seconds']:.3f} "
                f"| {report['peak_rss_bytes'] / 1e6:.1f} "
                f"| {report['cold_seconds']['Q1-trajectory'] * 1e3:.2f} "
                f"| {report['warm_seconds']['Q1-trajectory'] * 1e3:.2f} "
                f"| {file_bytes / 1e6:.2f} |"
            )
    lines.append("")
    lines.append(
        "Answer fingerprints verified identical across loaders at every "
        "scale; at gated scales v2-lazy peak RSS is strictly below "
        "v1-eager."
    )
    return "\n".join(lines) + "\n"


def add_bench_persist_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro bench-persist`` arguments on *parser*."""
    parser.add_argument(
        "--out",
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT}; '-' for none)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced matrix for CI: scales 1 and 2, no RSS gate",
    )
    parser.add_argument(
        "--scales",
        nargs="+",
        type=int,
        default=None,
        help="retail scale multipliers (default: 1 10; quick: 1 2)",
    )
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=DEFAULT_MEMORY_BUDGET,
        help=(
            "decoded-series byte budget for the v2-lazy loader "
            f"(default: {DEFAULT_MEMORY_BUDGET})"
        ),
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=DEFAULT_SHARD_SIZE,
        help=f"rules per v2 shard (default: {DEFAULT_SHARD_SIZE})",
    )
    parser.add_argument(
        "--summary-out",
        default=None,
        metavar="PATH",
        help=(
            "append a Markdown loader comparison to PATH "
            "(CI passes $GITHUB_STEP_SUMMARY)"
        ),
    )


def run_bench_persist(args: argparse.Namespace) -> int:
    """Entry point for the ``repro bench-persist`` subcommand."""
    if args.memory_budget <= 0:
        raise ValidationError(
            f"--memory-budget must be positive, got {args.memory_budget}"
        )
    if args.scales is not None:
        scales: Sequence[int] = tuple(args.scales)
    else:
        scales = (1, 2) if args.quick else (1, 10)
    if any(scale < 1 for scale in scales):
        raise ValidationError(f"scales must be >= 1, got {list(scales)}")
    print(
        f"repro bench-persist ({'quick' if args.quick else 'full'}): "
        f"retail at {'/'.join(str(s) + 'x' for s in scales)}, "
        f"budget={args.memory_budget} B, shard_size={args.shard_size}"
    )
    results = run_persist_matrix(scales, args.memory_budget, args.shard_size)
    payload = {
        "schema": SCHEMA,
        "version": __version__,
        "quick": args.quick,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
        },
        "memory_budget": args.memory_budget,
        "shard_size": args.shard_size,
        "scales": list(scales),
        "results": results,
    }
    if args.out != "-":
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        print(f"wrote {args.out} ({SCHEMA})")
    if args.summary_out:
        with open(args.summary_out, "a", encoding="utf-8") as handle:
            handle.write(persist_summary_markdown(results))
        print(f"appended persistence summary to {args.summary_out}")
    return 0
