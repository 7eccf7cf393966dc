"""Count-native Q1: trajectories go from archive counts to bytes.

A Q1 answer keeps each rule's archive entries and one shared tuple of
window sizes; the wire encoder formats every row from those counts
through a memo, never through a :class:`WindowMeasure`, a dict or
``json.dumps``.  These tests pin the three links of that path:

* the memoized fragment of one window equals ``dumps_bytes`` of the
  dict encoder's projection of the matching ``WindowMeasure``, for any
  counts (a zero window, a zero antecedent, counts beyond 32 bits);
* a whole row written from counts equals the dict encoder's row;
* on eager and lazy knowledge bases an answer holds exactly the
  archive's ``series_entries`` in its spec, and a served Q1 miss
  constructs no ``WindowMeasure`` at all.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    LazyTaraKnowledgeBase,
    ParameterSetting,
    RuleTrajectory,
    TaraExplorer,
    TrajectoryQuery,
    load_knowledge_base,
    save_knowledge_base,
)
from repro.core.archive import WindowMeasure
from repro.data import PeriodSpec
from repro.mining.rules import Rule
from repro.serve.gateway import QueryGateway
from repro.serve.protocol import (
    _counts_bytes,
    _encode_measure,
    dumps_bytes,
    encode_answer,
    encode_answer_bytes,
    encode_request,
)
from repro.service import TaraService

SETTING = ParameterSetting(min_support=0.02, min_confidence=0.1)

counts = st.integers(min_value=0, max_value=2**48)


class TestCountsFragment:
    @settings(max_examples=300, deadline=None)
    @given(
        window_size=counts,
        rule_count=counts,
        antecedent_count=counts,
        consequent_count=counts,
    )
    @example(window_size=0, rule_count=0, antecedent_count=0, consequent_count=0)
    @example(window_size=0, rule_count=7, antecedent_count=9, consequent_count=8)
    @example(window_size=625, rule_count=7, antecedent_count=0, consequent_count=7)
    @example(
        window_size=2**40 + 3,
        rule_count=2**33 + 1,
        antecedent_count=2**35 + 7,
        consequent_count=2**34,
    )
    def test_fragment_equals_the_measure_projection(
        self, window_size, rule_count, antecedent_count, consequent_count
    ):
        measure = WindowMeasure(
            window=0,
            rule_count=rule_count,
            antecedent_count=antecedent_count,
            window_size=window_size,
            consequent_count=consequent_count,
        )
        assert _counts_bytes(
            window_size, rule_count, antecedent_count, consequent_count
        ) == dumps_bytes(_encode_measure(measure))


@st.composite
def spec_sizes(draw):
    windows = draw(
        st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True)
    )
    return tuple((window, draw(counts)) for window in sorted(windows))


@st.composite
def trajectories(draw):
    """Answers over one arbitrary spec (the explorer's shape) or mixed specs."""
    shared = draw(st.booleans())
    window_sizes = draw(spec_sizes())
    answer = []
    for rule_id in range(draw(st.integers(0, 4))):
        if not shared:
            window_sizes = draw(spec_sizes())
        windows = [window for window, _ in window_sizes]
        present = draw(st.lists(st.sampled_from(windows), unique=True))
        entries = tuple(
            (window, draw(counts), draw(counts), draw(counts))
            for window in sorted(present)
        )
        answer.append(
            RuleTrajectory(rule_id, Rule((1,), (2, 3)), entries, window_sizes)
        )
    return answer


class TestRowsFromCounts:
    @settings(max_examples=100, deadline=None)
    @given(answer=trajectories(), chunk_target=st.integers(1, 4096))
    def test_rows_equal_the_dict_encoder(self, answer, chunk_target):
        chunks = list(encode_answer_bytes("Q1", answer, chunk_target=chunk_target))
        assert b"".join(chunks) == dumps_bytes(encode_answer("Q1", answer))

    def test_row_over_an_empty_spec(self):
        answer = [RuleTrajectory(0, Rule((1,), (2,)), (), ())]
        assert b"".join(encode_answer_bytes("Q1", answer)) == dumps_bytes(
            encode_answer("Q1", answer)
        )


@pytest.fixture(params=["eager", "lazy"])
def knowledge_base(request, small_kb, tmp_path):
    if request.param == "eager":
        yield small_kb
        return
    path = tmp_path / "kb.tara2"
    save_knowledge_base(small_kb, path)
    lazy = load_knowledge_base(path)
    assert isinstance(lazy, LazyTaraKnowledgeBase)
    yield lazy
    lazy.close()


class TestAnswersHoldArchiveEntries:
    @pytest.mark.parametrize("windows", [None, (1, 3), (2,)])
    def test_entries_are_the_series_restricted_to_the_spec(
        self, knowledge_base, windows
    ):
        spec = None if windows is None else PeriodSpec(windows)
        answer = TaraExplorer(knowledge_base).execute(
            TrajectoryQuery(setting=SETTING, anchor_window=0, spec=spec)
        )
        archive = knowledge_base.archive
        wanted = range(knowledge_base.window_count) if spec is None else windows
        sizes = tuple((window, archive.window_size(window)) for window in wanted)
        assert answer
        for trajectory in answer:
            assert trajectory.entries == tuple(
                entry
                for entry in archive.series_entries(trajectory.rule_id)
                if entry[0] in wanted
            )
            assert trajectory.window_sizes == sizes
        # One sizes tuple per answer, so a cached answer holds no
        # per-rule copy of it.
        assert len({id(trajectory.window_sizes) for trajectory in answer}) == 1

    def test_served_miss_constructs_no_window_measure(
        self, knowledge_base, monkeypatch
    ):
        built = []
        original_init = WindowMeasure.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original_init(self, *args, **kwargs)

        # Test-local shadow: every WindowMeasure construction counts.
        monkeypatch.setattr(WindowMeasure, "__init__", counting_init)
        query = TrajectoryQuery(setting=SETTING, anchor_window=0)
        kind, payload = encode_request(query)
        service = TaraService(knowledge_base)

        async def scenario():
            gateway = QueryGateway(service, pool_size=1)
            try:
                return await gateway.dispatch_wire(
                    "POST", f"/v1/query/{kind}", json.dumps(payload).encode()
                )
            finally:
                gateway.aclose()

        response = asyncio.run(scenario())
        assert response.status == 200
        envelope = json.loads(response.body)
        assert envelope["cached"] is False
        assert envelope["answer"]["trajectories"]
        assert built == []
        # The shadow does count: the dict encoder reads ``measures``.
        assert envelope["answer"] == encode_answer("Q1", service.uncached(query))
        assert built
