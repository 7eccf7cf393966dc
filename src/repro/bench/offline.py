"""``repro bench`` — the offline-phase performance harness.

Datasets, thresholds, and the shared ``--quick/--out/--repeat/--datasets``
flags live in :mod:`repro.bench.workloads`, shared with the online
serving harness (:mod:`repro.bench.online`).

Runs a small fixed workload matrix (dataset × miner) through the
complete offline build, records wall-clock and the Figure 9 per-task
phase breakdown for every cell, verifies that every miner builds a
bit-identical knowledge base, and emits a machine-readable
``BENCH_offline.json`` that seeds the repository's performance
trajectory (one file per commit that cares to record one; CI
regenerates it on every PR).  docs/performance.md explains how to read
the numbers and why they scale the way they do.

Schema of ``BENCH_offline.json`` (``repro-bench-offline/2``)
============================================================

``schema``
    The literal string ``"repro-bench-offline/2"``.  Consumers must
    reject files whose schema string they do not recognise.
``version``
    The ``repro`` package version that produced the file.
``quick``
    ``true`` when the reduced CI matrix ran (``--quick``).
``host``
    ``{"platform", "python", "implementation", "cpu_count"}`` — enough
    to judge whether two trajectory points are comparable.  No wall
    date is recorded (clock isolation, rule R005); the git history of
    the file carries the timeline.
``repeat``
    How many times each cell was built (wall seconds are the best of
    the repeats).
``results``
    One object per matrix cell::

        {"dataset", "transactions", "windows", "miner",
         "wall_seconds",       # best-of-``repeat`` full build wall time
         "phases",             # Figure 9 task -> seconds, of the best run
         "rules", "archive_entries", "archive_bytes",
         "fingerprint"}        # sha256 over catalog + archive bytes + EPS axes

    Equal fingerprints are *enforced* before the file is written: every
    miner's build must match the first miner's on the same dataset
    (rule ids, archive bytes, and EPS axes are miner-independent by
    construction — ``derive_rules`` processes itemsets in canonical
    order).  A divergence aborts the bench with a nonzero exit instead
    of recording a lie.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
from typing import Any, Dict, List, Optional, Sequence

from repro._version import __version__
from repro.common.errors import ValidationError
from repro.common.timing import stopwatch
from repro.core import GenerationConfig, TaraKnowledgeBase, build_knowledge_base
from repro.mining import MINERS
from repro.bench.workloads import (
    FULL_MINERS,
    QUICK_MINERS,
    _WORKLOADS,
    _database,
    _windows,
    add_shared_bench_arguments,
    select_datasets,
)

SCHEMA = "repro-bench-offline/2"
DEFAULT_OUT = "BENCH_offline.json"


def knowledge_base_fingerprint(knowledge_base: TaraKnowledgeBase) -> str:
    """sha256 over everything the offline phase produces.

    Covers the interned rules in id order, every rule's encoded archive
    series, per-window sizes/bounds, and each EPS slice's distinct
    support/confidence axes — the structures every miner must build
    identically.
    """
    digest = hashlib.sha256()
    catalog = knowledge_base.catalog
    for rule_id in range(len(catalog)):
        rule = catalog.get(rule_id)
        digest.update(repr((rule_id, rule.antecedent, rule.consequent)).encode())
    archive = knowledge_base.archive
    for rule_id in sorted(archive.rule_ids()):
        digest.update(repr(rule_id).encode())
        digest.update(archive.encoded_series(rule_id))
    for window in range(archive.window_count):
        digest.update(
            repr((archive.window_size(window), archive.missing_count_bound(window))).encode()
        )
    for window_slice in knowledge_base.slices:
        digest.update(
            repr(
                (
                    window_slice.window,
                    tuple(window_slice.supports),
                    tuple(window_slice.confidences),
                )
            ).encode()
        )
    digest.update(repr(knowledge_base.rules_in_window).encode())
    return digest.hexdigest()


def _run_cell(dataset: str, miner: str, repeat: int) -> Dict[str, Any]:
    """Build one matrix cell ``repeat`` times; keep the fastest run."""
    windows = _windows(dataset)
    _, _, min_support, min_confidence = _WORKLOADS[dataset]
    config = GenerationConfig(
        min_support=min_support,
        min_confidence=min_confidence,
        miner=miner,
    )
    best_seconds = None
    best_kb = None
    for _ in range(repeat):
        with stopwatch() as clock:
            knowledge_base = build_knowledge_base(windows, config)
        if best_seconds is None or clock.seconds < best_seconds:
            best_seconds = clock.seconds
            best_kb = knowledge_base
    assert best_kb is not None and best_seconds is not None  # repeat >= 1
    return {
        "dataset": dataset,
        "transactions": len(_database(dataset)),
        "windows": windows.window_count,
        "miner": miner,
        "wall_seconds": best_seconds,
        "phases": best_kb.timer.breakdown(),
        "rules": len(best_kb.catalog),
        "archive_entries": best_kb.archive.entry_count(),
        "archive_bytes": best_kb.archive.encoded_size_bytes(),
        "fingerprint": knowledge_base_fingerprint(best_kb),
    }


def run_matrix(
    datasets: Sequence[str], miners: Sequence[str], repeat: int
) -> List[Dict[str, Any]]:
    """Run the workload matrix; returns one result per cell.

    Raises :class:`ValidationError` when two miners' builds of the same
    dataset disagree — the bench refuses to record numbers for a build
    that broke cross-miner equivalence.
    """
    results: List[Dict[str, Any]] = []
    for dataset in datasets:
        reference: Optional[Dict[str, Any]] = None
        for miner in miners:
            cell = _run_cell(dataset, miner, repeat)
            results.append(cell)
            print(
                f"  {dataset:<8} {miner:<9} "
                f"wall={cell['wall_seconds'] * 1e3:9.1f} ms  "
                f"rules={cell['rules']}"
            )
            if reference is None:
                reference = cell
            elif cell["fingerprint"] != reference["fingerprint"]:
                raise ValidationError(
                    f"{miner} build of {dataset} diverged from "
                    f"{reference['miner']} (fingerprint mismatch) — "
                    f"refusing to record benchmark results"
                )
    return results


def phase_summary_markdown(results: Sequence[Dict[str, Any]]) -> str:
    """Render the per-phase breakdown of *results* as a Markdown table.

    One row per matrix cell, one column per Figure 9 phase (union of
    the phase names seen across cells, in first-seen order so the
    builder's canonical ordering is preserved).  Written to
    ``--summary-out`` — in CI that is ``$GITHUB_STEP_SUMMARY``, so the
    phase trajectory is readable from the job page without downloading
    the ``BENCH_offline.json`` artifact.
    """
    phase_names: List[str] = []
    for cell in results:
        for name in cell["phases"]:
            if name not in phase_names:
                phase_names.append(name)
    lines = [
        "## repro bench — per-phase breakdown (best-of-repeat, seconds)",
        "",
        "| dataset | miner | wall | "
        + " | ".join(phase_names)
        + " |",
        "|---|---|---:|" + "---:|" * len(phase_names),
    ]
    for cell in results:
        phases = cell["phases"]
        row = [
            cell["dataset"],
            cell["miner"],
            f"{cell['wall_seconds']:.4f}",
        ]
        row.extend(
            f"{phases[name]:.4f}" if name in phases else "—"
            for name in phase_names
        )
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append(
        "All fingerprints verified equal across miners before these "
        "numbers were recorded."
    )
    return "\n".join(lines) + "\n"


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro bench`` arguments on *parser*."""
    add_shared_bench_arguments(parser, default_out=DEFAULT_OUT)
    parser.add_argument(
        "--summary-out",
        default=None,
        metavar="PATH",
        help=(
            "append a Markdown per-phase breakdown to PATH "
            "(CI passes $GITHUB_STEP_SUMMARY)"
        ),
    )
    parser.add_argument(
        "--miners",
        nargs="+",
        choices=sorted(MINERS),
        default=None,
        help="benchmark only these miners (default: quick/full selection)",
    )


def run_bench(args: argparse.Namespace) -> int:
    """Entry point for the ``repro bench`` subcommand."""
    if args.repeat < 1:
        raise ValidationError(f"--repeat must be >= 1, got {args.repeat}")
    datasets = select_datasets(args)
    if args.miners:
        miners: Sequence[str] = tuple(args.miners)
    else:
        miners = QUICK_MINERS if args.quick else FULL_MINERS
    print(
        f"repro bench ({'quick' if args.quick else 'full'} matrix): "
        f"{len(datasets)} dataset(s) x {len(miners)} miner(s), "
        f"repeat={args.repeat}, cpus={os.cpu_count()}"
    )
    results = run_matrix(datasets, miners, args.repeat)
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
        "repeat": args.repeat,
        "results": results,
    }
    if args.out != "-":
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        print(f"wrote {args.out} ({SCHEMA})")
    if args.summary_out:
        with open(args.summary_out, "a", encoding="utf-8") as handle:
            handle.write(phase_summary_markdown(results))
        print(f"appended phase summary to {args.summary_out}")
    return 0
