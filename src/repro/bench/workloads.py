"""Shared benchmark workloads and CLI flags for the perf harnesses.

``repro bench`` (offline build, :mod:`repro.bench.offline`) draws its
datasets, generation thresholds and common command-line flags from
here, and ``repro bench-persist`` (:mod:`repro.bench.persist`) scales
the same retail workload, so the harnesses always agree on what
"retail" means.
"""

from __future__ import annotations

import argparse
from typing import Dict, Tuple

from repro.common.errors import ValidationError
from repro.data import TransactionDatabase, WindowedDatabase
from repro.datagen import quest_t5k_scaled, retail_dataset

#: Offline matrix rows (datasets) and columns (miners).  The quick (CI)
#: matrix pairs the reference miner with the vertical bitmap kernel so
#: every PR re-proves the cross-miner fingerprint equality *and* records
#: the kernel's speedup; ``repro bench --miners`` overrides either list.
QUICK_DATASETS: Tuple[str, ...] = ("retail",)
QUICK_MINERS: Tuple[str, ...] = ("apriori", "vertical")
FULL_DATASETS: Tuple[str, ...] = ("retail", "T5k")
FULL_MINERS: Tuple[str, ...] = ("apriori", "fpgrowth", "vertical")

#: Per-dataset (transaction count, windows, supp_g, conf_g).
_WORKLOADS: Dict[str, Tuple[int, int, float, float]] = {
    "retail": (5_000, 8, 0.010, 0.30),
    "T5k": (2_500, 8, 0.020, 0.30),
}


def _database(name: str) -> TransactionDatabase:
    """The raw transaction database of one bench dataset."""
    size = _WORKLOADS[name][0]
    if name == "retail":
        return retail_dataset(transaction_count=size, seed=11)
    if name == "T5k":
        return quest_t5k_scaled(scale=size / 5_000_000, seed=5)
    raise ValidationError(f"unknown bench dataset {name!r}")


def _windows(name: str) -> WindowedDatabase:
    """The dataset split into its standard evolving windows."""
    return WindowedDatabase.partition_by_count(
        _database(name), _WORKLOADS[name][1]
    )


def add_shared_bench_arguments(
    parser: argparse.ArgumentParser, *, default_out: str
) -> None:
    """Install ``repro bench``'s matrix and output flags on *parser*.

    ``--quick`` (reduced CI matrix), ``--out`` (JSON artefact path, with
    the harness-specific *default_out*), ``--repeat`` (repetitions per
    cell; best-of), and ``--datasets`` (explicit dataset subset
    overriding the quick/full selection).
    """
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced CI matrix (retail only)",
    )
    parser.add_argument(
        "--out",
        default=default_out,
        help=f"output JSON path (default: {default_out}; '-' for stdout only)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="repetitions per cell; results keep the best (default: 2)",
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        choices=tuple(_WORKLOADS),
        default=None,
        help="benchmark only these datasets (default: quick/full selection)",
    )


def select_datasets(args: argparse.Namespace) -> Tuple[str, ...]:
    """Resolve the dataset list from the shared flags."""
    if args.datasets:
        return tuple(args.datasets)
    return QUICK_DATASETS if args.quick else FULL_DATASETS
