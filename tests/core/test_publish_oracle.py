"""Differential oracle for snapshot publication.

A hypothesis state machine drives one :class:`IncrementalTara` through
publishes (some failing mid-build), pins, releases, queries and v2
saves, and checks every pinned snapshot against a from-scratch
:class:`TaraBuilder` build at the pin's window count:

* Q1/Q2/Q3/Q5 answers encode to the same bytes (``encode_answer_blob``),
  however many publishes happened since the pin was taken;
* the saved v2 container is byte-identical;
* the publisher's standing pin is the only reference left when nothing
  is held, and no snapshot retires more than once.

One deterministic case holds a publish inside its build — after its
first new window was derived into the catalog the snapshots share —
while a reader saves and queries the pinned predecessor.
"""

from __future__ import annotations

import random
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Tuple

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import (
    CompareQuery,
    ContentQuery,
    GenerationConfig,
    IncrementalTara,
    ParameterSetting,
    RecommendQuery,
    TaraExplorer,
    TrajectoryQuery,
)
from repro.core.archive import TarArchive
from repro.core.builder import TaraBuilder, TaraKnowledgeBase
from repro.core.persistence import save_knowledge_base
from repro.core.snapshot import Snapshot, SnapshotHandle
from repro.data import TransactionDatabase, WindowedDatabase
from repro.mining.rules import RuleCatalog
from repro.serve.protocol import encode_answer_blob

WINDOWS = 6
PER_WINDOW = 120
#: Q5 needs the TARA-S item index.
CONFIG = GenerationConfig(0.05, 0.3, build_item_index=True)
SETTING = ParameterSetting(0.08, 0.4)
QUERIES = (
    ("Q1", TrajectoryQuery(setting=SETTING, anchor_window=0)),
    ("Q2", CompareQuery(first=SETTING, second=ParameterSetting(0.12, 0.5))),
    ("Q3", RecommendQuery(setting=SETTING)),
    ("Q5", ContentQuery(setting=SETTING, items=(4, 5))),
)


def _windows() -> WindowedDatabase:
    """Each window draws from a pool shifted by two items, so every
    publish derives rules no earlier window had."""
    rng = random.Random(18)
    itemlists = [
        sorted(rng.sample(range(2 * window, 2 * window + 9), rng.randint(1, 4)))
        for window in range(WINDOWS)
        for _ in range(PER_WINDOW)
    ]
    return WindowedDatabase.partition_by_count(
        TransactionDatabase.from_itemlists(itemlists), WINDOWS
    )


BATCHES = [list(_windows().window(w)) for w in range(WINDOWS)]


class Oracle:
    """From-scratch builds, their answers and v2 bytes, per window count."""

    def __init__(self) -> None:
        self._answers: Dict[Tuple[int, str], bytes] = {}
        self._saved: Dict[int, bytes] = {}
        self._builds: Dict[int, TaraKnowledgeBase] = {}

    def build(self, windows: int) -> TaraKnowledgeBase:
        built = self._builds.get(windows)
        if built is None:
            built = TaraKnowledgeBase(
                config=CONFIG, catalog=RuleCatalog(), archive=TarArchive()
            )
            TaraBuilder(CONFIG).add_windows(built, BATCHES[:windows])
            built.archive.seal()
            self._builds[windows] = built
        return built

    def answer(self, windows: int, query_class: str, query: object) -> bytes:
        key = (windows, query_class)
        blob = self._answers.get(key)
        if blob is None:
            answer = TaraExplorer(self.build(windows)).execute(query)
            blob = encode_answer_blob(query_class, answer)
            self._answers[key] = blob
        return blob

    def saved(self, windows: int) -> bytes:
        blob = self._saved.get(windows)
        if blob is None:
            blob = _saved_bytes(self.build(windows))
            self._saved[windows] = blob
        return blob


ORACLE = Oracle()


def _saved_bytes(knowledge_base: TaraKnowledgeBase) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "kb.tarakb"
        save_knowledge_base(knowledge_base, path)
        return path.read_bytes()


def _check_answers(snapshot: Snapshot) -> None:
    explorer = snapshot.explorer()
    for query_class, query in QUERIES:
        blob = encode_answer_blob(query_class, explorer.execute(query))
        assert blob == ORACLE.answer(snapshot.window_count, query_class, query)


class PublishMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.publisher = IncrementalTara(CONFIG)
        self.pins: List[SnapshotHandle] = []
        self.seen: List[Snapshot] = [self.publisher.current]

    def _remaining(self) -> int:
        return WINDOWS - self.publisher.window_count

    @precondition(lambda self: self._remaining() > 0)
    @rule(count=st.integers(1, 2))
    def publish(self, count: int) -> None:
        start = self.publisher.window_count
        batches = BATCHES[start : start + min(count, self._remaining())]
        snapshot = self.publisher.publish(batches)
        assert snapshot.window_count == start + len(batches)
        self.seen.append(snapshot)

    @precondition(lambda self: self._remaining() > 0)
    @rule(count=st.integers(1, 2), failing=st.integers(0, 1))
    def publish_failing(self, count: int, failing: int) -> None:
        """A publish that raises after deriving its *failing*-th batch."""
        start = self.publisher.window_count
        batches = BATCHES[start : start + min(count, self._remaining())]
        failing = min(failing, len(batches) - 1)
        before = self.publisher.current
        builder = self.publisher._builder
        calls = []

        def add_window_then_fail(knowledge_base, batch):
            added = TaraBuilder.add_window(builder, knowledge_base, batch)
            calls.append(batch)
            if len(calls) == failing + 1:
                raise MemoryError("injected after the window was derived")
            return added

        builder.add_window = add_window_then_fail  # instance shadow, test-only
        try:
            self.publisher.publish(batches)
        except MemoryError:
            pass
        else:
            raise AssertionError("the injected failure did not propagate")
        finally:
            del builder.add_window
        assert self.publisher.current is before
        assert not self.publisher.snapshot_stats()["building"]

    @rule()
    def pin(self) -> None:
        self.pins.append(self.publisher.snapshot())

    @precondition(lambda self: self.pins)
    @rule(index=st.integers(0, 7))
    def release(self, index: int) -> None:
        self.pins.pop(index % len(self.pins)).release()

    @rule()
    def query_pins(self) -> None:
        for handle in self.pins:
            if handle.snapshot.window_count:
                _check_answers(handle.snapshot)

    @precondition(lambda self: self.pins)
    @rule(index=st.integers(0, 7))
    def save_pin(self, index: int) -> None:
        snapshot = self.pins[index % len(self.pins)].snapshot
        assert _saved_bytes(snapshot.knowledge_base) == ORACLE.saved(
            snapshot.window_count
        )

    @invariant()
    def refs_count_the_held_pins(self) -> None:
        current = self.publisher.current
        held = sum(1 for handle in self.pins if handle.snapshot is current)
        assert current.refs == 1 + held

    @invariant()
    def nothing_retires_twice(self) -> None:
        pinned = {id(handle.snapshot) for handle in self.pins}
        current = self.publisher.current
        for snapshot in self.seen:
            assert snapshot.retire_count <= 1
            if snapshot is not current and id(snapshot) not in pinned:
                assert snapshot.retire_count == 1

    def teardown(self) -> None:
        for handle in self.pins:
            handle.release()
        assert self.publisher.current.refs == 1


PublishMachine.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestPublishOracle = PublishMachine.TestCase


def test_reader_saves_and_queries_the_predecessor_during_a_held_publish():
    publisher = IncrementalTara(CONFIG)
    publisher.publish(BATCHES[:2])
    builder = publisher._builder
    add_window = builder.add_window
    in_build = threading.Event()
    resume = threading.Event()
    calls = []

    def held_add_window(knowledge_base, batch):
        calls.append(batch)
        if len(calls) == 2:
            # The first new window is already derived into the shared
            # catalog and archived; hold before the second.
            in_build.set()
            assert resume.wait(timeout=10.0)
        return add_window(knowledge_base, batch)

    builder.add_window = held_add_window  # instance shadow, test-only
    published: List[Snapshot] = []
    errors: List[BaseException] = []

    def write() -> None:
        try:
            published.append(publisher.publish(BATCHES[2:4]))
        except BaseException as error:  # surfaced by the asserts below
            errors.append(error)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        assert in_build.wait(timeout=10.0)
        with publisher.snapshot() as predecessor:
            assert predecessor.window_count == 2
            assert _saved_bytes(predecessor.knowledge_base) == ORACLE.saved(2)
            _check_answers(predecessor)
            assert publisher.snapshot_stats()["building"] is True
    finally:
        resume.set()
        writer.join(timeout=30.0)
    assert not writer.is_alive()
    assert not errors
    assert published[0].window_count == 4
    with publisher.snapshot() as current:
        _check_answers(current)
        assert _saved_bytes(current.knowledge_base) == ORACLE.saved(4)
    assert publisher.current.refs == 1
    assert publisher.snapshot_stats()["retired_snapshots"] == 2


def test_readers_of_pins_agree_with_the_oracle_while_windows_publish():
    """Readers query and save pinned snapshots, and iterate their
    catalogs, while the publisher grows the state those snapshots
    share; every read must match the oracle at its pin's count."""
    for windows in range(1, WINDOWS + 1):  # warm: readers only look up
        for query_class, query in QUERIES:
            ORACLE.answer(windows, query_class, query)
        ORACLE.saved(windows)
    publisher = IncrementalTara(CONFIG)
    publisher.publish(BATCHES[:1])
    stop = threading.Event()
    errors: List[BaseException] = []
    reads = []

    def read() -> None:
        try:
            while not stop.is_set():
                with publisher.snapshot() as pinned:
                    expected = ORACLE.build(pinned.window_count)
                    catalog = pinned.knowledge_base.catalog
                    assert list(catalog) == list(expected.catalog)
                    _check_answers(pinned)
                    reads.append(pinned.window_count)
        except BaseException as error:  # surfaced by the asserts below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=read) for _ in range(3)]
    try:
        for reader in readers:
            reader.start()
        for window in range(1, WINDOWS):
            publisher.publish([BATCHES[window]])
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=30.0)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert not errors, errors[0]
    assert reads
    assert publisher.current.refs == 1
