"""Seeded inputs are reproducible, and changed inputs are refused."""

from __future__ import annotations

from dataclasses import replace

import pytest

from tarabench.cli import DigestMismatch, check_digests
from tarabench.inputs import make_inputs, requests_digest

SECONDS = 20  # the pinned run length of BENCHMARK.json


def test_same_seed_same_bytes_other_seed_other_bytes() -> None:
    first = make_inputs("ingest", 4, SECONDS)
    again = make_inputs("ingest", 4, SECONDS)
    other = make_inputs("ingest", 5, SECONDS)
    assert requests_digest(first) == requests_digest(again)
    assert requests_digest(first) != requests_digest(other)
    assert first.windows == other.windows


def test_pinned_digests_accept_generated_inputs() -> None:
    for workload in ("hot", "explore", "ingest"):
        check_digests(make_inputs(workload, 0, SECONDS), SECONDS)


def test_changed_inputs_are_refused() -> None:
    inputs = make_inputs("ingest", 0, SECONDS)
    with pytest.raises(DigestMismatch, match="request bytes"):
        check_digests(replace(inputs, appends=inputs.appends[:-1]), SECONDS)
    with pytest.raises(DigestMismatch, match="windows"):
        check_digests(replace(inputs, windows=inputs.windows[:-1]), SECONDS)
