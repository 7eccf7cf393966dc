"""Unit tests for the encoded-response byte cache."""

from __future__ import annotations

import pytest

from repro.common.errors import ValidationError
from repro.serve.respcache import (
    ENTRY_OVERHEAD,
    GZIP,
    IDENTITY,
    ResponseCache,
)
from repro.service.keys import EPOCH_FREE

KEY_A = ((1, 2, 3), ())
KEY_B = ((4, 5, 6), ())
KEY_ECHO = ((1, 2, 3), (0.25, 0.5))


def filled(budget=1 << 20):
    cache = ResponseCache(budget)
    cache.put(KEY_A, b"alpha", 3)
    return cache


class TestLookup:
    def test_miss_then_hit(self):
        cache = filled()
        assert cache.lookup(KEY_B, accept_gzip=False) is None
        found = cache.lookup(KEY_A, accept_gzip=False)
        assert found is not None
        assert found.encoding == IDENTITY and found.body == b"alpha"
        assert cache.hits == 1 and cache.misses == 1

    def test_echo_tag_distinguishes_entries(self):
        cache = filled()
        # Same region key, different raw caller floats: distinct bytes.
        assert cache.lookup(KEY_ECHO, accept_gzip=False) is None
        cache.put(KEY_ECHO, b"echoed", 3)
        assert cache.lookup(KEY_ECHO, accept_gzip=False).body == b"echoed"
        assert cache.lookup(KEY_A, accept_gzip=False).body == b"alpha"

    def test_gzip_preferred_when_accepted(self):
        cache = filled()
        cache.put_gzip(KEY_A, b"gz", 3)
        assert cache.lookup(KEY_A, accept_gzip=True).encoding == GZIP
        assert cache.lookup(KEY_A, accept_gzip=False).encoding == IDENTITY

    def test_identity_fallback_counts_one_hit(self):
        cache = filled()
        found = cache.lookup(KEY_A, accept_gzip=True)
        assert found.encoding == IDENTITY  # no variant yet
        assert cache.hits == 1 and cache.misses == 0

    def test_gzip_variant_counter_counts_new_entries_once(self):
        cache = filled()
        cache.put_gzip(KEY_A, b"gz1", 3)
        cache.put_gzip(KEY_A, b"gz2", 3)  # refresh, not a new variant
        assert cache.gzip_variants == 1

    def test_gzip_variant_counted_when_its_store_evicts(self):
        body = b"x" * 100
        cache = ResponseCache(3 * (len(body) + ENTRY_OVERHEAD))
        keys = [((n,), ()) for n in range(3)]
        for key in keys:
            cache.put(key, body, EPOCH_FREE)
        cache.put_gzip(keys[2], body, EPOCH_FREE)  # full: evicts keys[0]
        assert cache.evictions == 1 and len(cache) == 3
        assert cache.lookup(keys[2], accept_gzip=True).encoding == GZIP
        assert cache.gzip_variants == 1


class TestBudget:
    def test_eviction_is_least_recently_served(self):
        body = b"x" * 100
        budget = 3 * (len(body) + ENTRY_OVERHEAD)
        cache = ResponseCache(budget)
        keys = [((n,), ()) for n in range(3)]
        for key in keys:
            cache.put(key, body, EPOCH_FREE)
        cache.lookup(keys[0], accept_gzip=False)  # refresh the oldest
        cache.put(((9,), ()), body, EPOCH_FREE)  # forces one eviction
        assert cache.evictions == 1
        assert cache.lookup(keys[1], accept_gzip=False) is None  # evicted
        assert cache.lookup(keys[0], accept_gzip=False) is not None

    def test_byte_accounting(self):
        cache = ResponseCache(1 << 20)
        cache.put(KEY_A, b"abcd", EPOCH_FREE)
        expected = 4 + ENTRY_OVERHEAD
        assert cache.current_bytes == expected
        cache.put(KEY_A, b"ab", EPOCH_FREE)  # refresh shrinks the charge
        assert cache.current_bytes == 2 + ENTRY_OVERHEAD
        assert cache.peak_bytes == expected

    def test_oversize_body_rejected(self):
        cache = ResponseCache(64)
        cache.put(KEY_A, b"y" * 65, EPOCH_FREE)
        assert cache.rejected == 1
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_budget_must_be_positive(self):
        with pytest.raises(ValidationError, match="budget_bytes"):
            ResponseCache(0)


class TestEpochRetirement:
    def test_other_epochs_purged_current_kept(self):
        cache = ResponseCache(1 << 20)
        cache.put(KEY_A, b"old", 3)
        cache.put(KEY_B, b"new", 4)
        cache.observe_epoch(4)
        assert cache.lookup(KEY_A, accept_gzip=False) is None
        assert cache.lookup(KEY_B, accept_gzip=False).body == b"new"
        assert cache.purged_entries == 1 and cache.purged_epochs == 1
        assert cache.current_bytes == 3 + ENTRY_OVERHEAD

    def test_epoch_free_entries_survive(self):
        cache = ResponseCache(1 << 20)
        cache.put(KEY_A, b"forever", EPOCH_FREE)
        cache.put(KEY_B, b"scoped", 3)
        cache.observe_epoch(9)
        assert cache.lookup(KEY_A, accept_gzip=False).body == b"forever"
        assert cache.lookup(KEY_B, accept_gzip=False) is None

    def test_purge_drops_gzip_variant_with_its_epoch(self):
        cache = ResponseCache(1 << 20)
        cache.put(KEY_A, b"body", 3)
        cache.put_gzip(KEY_A, b"gz", 3)
        cache.observe_epoch(4)
        assert len(cache) == 0
        assert cache.purged_entries == 2

    def test_observe_same_epoch_is_noop(self):
        cache = ResponseCache(1 << 20)
        cache.put(KEY_A, b"body", 3)
        cache.observe_epoch(3)
        cache.observe_epoch(3)
        assert cache.lookup(KEY_A, accept_gzip=False) is not None
        assert cache.purged_entries == 0 and cache.purged_epochs == 0


class TestSecondAskAdmission:
    def test_first_miss_records_a_ghost_second_admits(self):
        cache = ResponseCache(1 << 20)
        assert cache.admit(KEY_A, 3) is False
        assert cache.first_sightings == 1
        assert len(cache) == 0 and cache.stores == 0
        assert cache.current_bytes == ENTRY_OVERHEAD
        # A ghost is no hit.
        assert cache.lookup(KEY_A, accept_gzip=False) is None
        assert cache.admit(KEY_A, 3) is True
        assert cache.first_sightings == 1
        cache.put(KEY_A, b"alpha", 3)
        # The body took the ghost's place and charge.
        assert cache.current_bytes == 5 + ENTRY_OVERHEAD
        assert cache.counters()["entries"] == 1 and cache.stores == 1

    def test_ghosts_and_bodies_evict_oldest_first(self):
        body = b"x" * 100
        # Two bodies and one ghost fill the budget.
        cache = ResponseCache(2 * (len(body) + ENTRY_OVERHEAD) + ENTRY_OVERHEAD)
        keys = [((n,), ()) for n in range(4)]
        cache.admit(keys[0], EPOCH_FREE)
        cache.put(keys[1], body, EPOCH_FREE)
        cache.put(keys[2], body, EPOCH_FREE)
        assert cache.current_bytes == cache.budget_bytes
        cache.admit(keys[3], EPOCH_FREE)  # evicts the oldest: ghost 0
        assert cache.evictions == 0  # evictions count bodies
        assert cache.admit(keys[0], EPOCH_FREE) is False  # a new sighting
        assert cache.evictions == 1  # ... which evicted body 1
        assert cache.lookup(keys[1], accept_gzip=False) is None
        assert cache.lookup(keys[2], accept_gzip=False) is not None
        assert cache.admit(keys[3], EPOCH_FREE) is True
        assert len(cache) == 1
        assert cache.current_bytes == len(body) + 3 * ENTRY_OVERHEAD

    def test_scoped_ghost_of_a_retired_epoch_is_purged(self):
        cache = ResponseCache(1 << 20)
        cache.admit(KEY_A, 3)
        cache.put(KEY_B, b"body", 3)
        cache.observe_epoch(4)
        assert cache.current_bytes == 0 and len(cache) == 0
        assert cache.purged_entries == 1  # the body, not the ghost
        assert cache.admit(KEY_A, 3) is False


class TestCounters:
    def test_counter_snapshot_keys(self):
        cache = filled()
        cache.record_served(42)
        cache.record_not_modified()
        counters = cache.counters()
        assert counters["entries"] == 1
        assert counters["stores"] == 1
        assert counters["bytes_served"] == 42
        assert counters["not_modified"] == 1
        assert set(counters) == {
            "entries",
            "budget_bytes",
            "current_bytes",
            "peak_bytes",
            "hits",
            "misses",
            "stores",
            "evictions",
            "rejected",
            "purged_entries",
            "purged_epochs",
            "gzip_variants",
            "bytes_served",
            "not_modified",
            "first_sightings",
        }
