"""Instrumentation for the offline/online phase breakdowns.

The paper's Figure 9 reports the offline preprocessing time *stacked by
task* (frequent-itemset generation, rule derivation, archival, EPS index
update).  :class:`PhaseTimer` collects named, nestable phase durations so
both the knowledge-base builder and the benchmark harness can report the
same per-task decomposition.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List


# Mutable by design: a timer accumulates durations in place and is never
# used as a dict key or set member.
@dataclass  # repro-lint: disable=R004
class PhaseTimer:
    """Accumulates wall-clock durations per named phase.

    Phases accumulate: timing the same name twice adds the durations,
    which is the behaviour wanted when the same task runs once per
    window.
    """

    totals: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    _order: List[str] = field(default_factory=list)

    def _register(self, name: str) -> None:
        if name not in self.totals:
            self.totals[name] = 0.0
            self.counts[name] = 0
            self._order.append(name)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager measuring one execution of the phase *name*."""
        self._register(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.totals[name] += elapsed
            self.counts[name] += 1

    def add(self, name: str, seconds: float) -> None:
        """Record *seconds* against phase *name* without a context manager."""
        self._register(name)
        self.totals[name] += seconds
        self.counts[name] += 1

    @property
    def total(self) -> float:
        """Sum of all phase durations."""
        return sum(self.totals.values())

    def merge(self, other: "PhaseTimer") -> None:
        """Fold another timer's phases into this one (used across windows)."""
        for name in other._order:
            self._register(name)
            self.totals[name] += other.totals[name]
            self.counts[name] += other.counts[name]

    def breakdown(self) -> Dict[str, float]:
        """Phase name -> seconds, in first-recorded order."""
        return {name: self.totals[name] for name in self._order}

    def report(self, title: str = "phase breakdown") -> str:
        """Human-readable multi-line report of the breakdown."""
        lines = [title]
        width = max((len(name) for name in self._order), default=0)
        for name in self._order:
            share = self.totals[name] / self.total if self.total else 0.0
            lines.append(
                f"  {name.ljust(width)}  {self.totals[name] * 1e3:10.3f} ms"
                f"  ({share:6.1%}, n={self.counts[name]})"
            )
        lines.append(f"  {'total'.ljust(width)}  {self.total * 1e3:10.3f} ms")
        return "\n".join(lines)


@contextmanager
def stopwatch() -> Iterator["Stopwatch"]:
    """Measure a block's wall-clock duration.

    Usage::

        with stopwatch() as clock:
            work()
        print(clock.seconds)
    """
    clock = Stopwatch()
    clock._start = time.perf_counter()
    try:
        yield clock
    finally:
        clock.seconds = time.perf_counter() - clock._start


class Stopwatch:
    """Holds the duration measured by :func:`stopwatch`."""

    def __init__(self) -> None:
        self._start = 0.0
        self.seconds = 0.0

    @property
    def millis(self) -> float:
        """Measured duration in milliseconds."""
        return self.seconds * 1e3


class Ticker:
    """A monotonic elapsed-seconds reader for long-lived processes.

    Where :func:`stopwatch` measures one bounded block, a ``Ticker`` is
    read repeatedly while still running — the serving tier uses it for
    uptime and requests-per-second gauges.  Like every other timing
    primitive it lives here so clock access stays confined to this
    module (rule R005).
    """

    def __init__(self) -> None:
        self._start = time.perf_counter()

    @property
    def seconds(self) -> float:
        """Seconds elapsed since construction (monotonic)."""
        return time.perf_counter() - self._start
