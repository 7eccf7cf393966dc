"""Shared fixtures: small deterministic datasets used across the suite."""

from __future__ import annotations

import gc
import random

import pytest

from repro.core import GenerationConfig, build_knowledge_base
from repro.data import TransactionDatabase, WindowedDatabase
from repro.maras import Report, ReportDatabase


@pytest.fixture(autouse=True)
def _restore_collector():
    """Leave the cyclic collector as each test found it.

    A serving gateway freezes the process heap until it is closed, and
    the refcount-only retirement tests disable the collector; neither
    may carry over into the next test.
    """
    enabled = gc.isenabled()
    yield
    gc.unfreeze()
    if enabled:
        gc.enable()
    else:
        gc.disable()


def random_itemlists(seed: int, count: int, item_count: int, max_len: int):
    """Deterministic random transactions (raw item lists)."""
    rng = random.Random(seed)
    return [
        sorted({rng.randrange(item_count) for _ in range(rng.randint(1, max_len))})
        for _ in range(count)
    ]


@pytest.fixture(scope="session")
def tiny_db() -> TransactionDatabase:
    """The paper's Table 1 example data, reverse-engineered.

    Two windows of 11 and 9 transactions over items a=0, b=1, c=2 whose
    per-window supports match the pregenerated example: in T1,
    supp(a)=0.36..., supp(ab)=0.18..., etc.  (11 and 9 transactions give
    4/11 ≈ 0.36, 2/11 ≈ 0.18, 4/9 ≈ 0.44, 3/9 ≈ 0.33, 1/9 ≈ 0.11.)
    """
    a, b, c = 0, 1, 2
    window_1 = [
        [a, b],
        [a, b],  # ab twice -> supp 2/11 = 0.18
        [a, c],
        [a, c],  # ac twice, a total 4 -> 4/11 = 0.36
        [b, c],  # bc once -> 1/11 = 0.09
        [b],
        [b],  # b total 5 -> 0.45
        [c],  # c total 4 -> 0.36
        [3],
        [3],
        [3],
    ]
    window_2 = [
        [a, c],
        [a, c],
        [a, c],  # ac 3/9 = 0.33
        [a, b],  # ab 1/9 = 0.11, a total 4/9 = 0.44
        [b, c],  # bc 1/9 = 0.11, b total 2/9 = 0.22, c total 4/9 = 0.44
        [3],
        [3],
        [3],
        [3],
    ]
    itemlists = window_1 + window_2
    return TransactionDatabase.from_itemlists(itemlists)


@pytest.fixture(scope="session")
def tiny_windows(tiny_db) -> WindowedDatabase:
    """The Table 1 data split into its two windows (11 + 9 by count split
    would be uneven; use explicit time partitioning)."""
    # Window width 11 puts transactions 0..10 in window 0, 11..19 in 1.
    return WindowedDatabase.partition_by_time(tiny_db, window_width=11)


@pytest.fixture(scope="session")
def small_windows() -> WindowedDatabase:
    """4 windows x 250 random transactions over 15 items (mid-size)."""
    itemlists = random_itemlists(seed=101, count=1000, item_count=15, max_len=6)
    db = TransactionDatabase.from_itemlists(itemlists)
    return WindowedDatabase.partition_by_count(db, 4)


@pytest.fixture(scope="session")
def small_kb(small_windows):
    """Knowledge base over ``small_windows`` with the TARA-S item index."""
    config = GenerationConfig(
        min_support=0.02, min_confidence=0.1, build_item_index=True
    )
    return build_knowledge_base(small_windows, config)


@pytest.fixture(scope="session")
def toy_reports() -> ReportDatabase:
    """The paper's Section 2.3.2 example reports plus background noise.

    Report t_i = {d1,d2,d3} + {a1,a2}, t_j = {d1,d2,d4} + {a1,a2}; the
    association (d1,d2) => (a1,a2) is *implicitly* supported by their
    intersection.  Extra reports give the single drugs background
    exposure so confidences are non-trivial.
    """
    d1, d2, d3, d4 = 0, 1, 2, 3
    a1, a2, a3 = 0, 1, 2
    reports = [
        Report.create([d1, d2, d3], [a1, a2], 0),
        Report.create([d1, d2, d4], [a1, a2], 1),
        Report.create([d1], [a3], 2),
        Report.create([d2], [a3], 3),
        Report.create([d3], [a3], 4),
        Report.create([d4], [a3], 5),
        Report.create([d1], [a3], 6),
    ]
    return ReportDatabase(reports)
