"""LRU and segment-retirement behaviour of the region-keyed cache."""

import pytest

from repro.common.errors import ValidationError
from repro.core.cache import RegionKeyedCache
from repro.service import EPOCH_FREE


class TestLru:
    def test_put_get_roundtrip(self):
        cache = RegionKeyedCache(max_entries=4)
        assert cache.get((1,)) is None
        cache.put((1,), "a", EPOCH_FREE)
        entry = cache.get((1,))
        assert entry is not None and entry.value == "a"
        assert len(cache) == 1 and (1,) in cache

    def test_bound_evicts_least_recently_used(self):
        cache = RegionKeyedCache(max_entries=2)
        cache.put((1,), "a", EPOCH_FREE)
        cache.put((2,), "b", EPOCH_FREE)
        cache.get((1,))  # refresh (1,) so (2,) is now the LRU victim
        evicted = cache.put((3,), "c", EPOCH_FREE)
        assert evicted == 1
        assert cache.get((2,)) is None
        assert cache.get((1,)) is not None and cache.get((3,)) is not None
        assert cache.evictions == 1

    def test_refreshing_put_does_not_grow(self):
        cache = RegionKeyedCache(max_entries=2)
        cache.put((1,), "a", EPOCH_FREE)
        cache.put((1,), "a2", EPOCH_FREE)
        assert len(cache) == 1
        entry = cache.get((1,))
        assert entry is not None and entry.value == "a2"

    def test_clear_reports_dropped(self):
        cache = RegionKeyedCache(max_entries=4)
        cache.put((1,), "a", EPOCH_FREE)
        cache.put((2,), "b", 3)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValidationError, match="max_entries"):
            RegionKeyedCache(max_entries=0)


class TestSegmentRetirement:
    def test_per_entry_purge_protocol_is_gone(self):
        # PR 8 retired purge_scoped_except: scoped entries live in a
        # snapshot's private segment and die with it, in one clear().
        assert not hasattr(RegionKeyedCache(max_entries=2), "purge_scoped_except")

    def test_clear_is_idempotent(self):
        cache = RegionKeyedCache(max_entries=8)
        cache.put((1,), "scoped", 2)
        cache.put((2,), "free", EPOCH_FREE)
        assert cache.clear() == 2
        assert cache.clear() == 0
