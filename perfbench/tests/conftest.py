"""Test set-up for the benchmark's own tests.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(scope="session")
def small_kb() -> Any:
    """A four-window retail knowledge base, built once for the session."""
    from repro.core.builder import build_knowledge_base
    from repro.data import WindowedDatabase
    from repro.datagen import retail_dataset

    from tarabench.workloads import generation_config

    windows = WindowedDatabase.partition_by_count(
        retail_dataset(transaction_count=2_500, seed=3), 4
    )
    return build_knowledge_base(windows, generation_config())
