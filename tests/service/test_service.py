"""End-to-end behaviour of the cached serving façade."""

import threading

import pytest

from repro.common.errors import ValidationError
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
from repro.service import TaraService


def anchored(setting):
    """Q1 anchored at window 0, tracked over every window."""
    return TrajectoryQuery(setting=setting, anchor_window=0)


@pytest.fixture()
def service(small_kb):
    return TaraService(small_kb)


class TestRegionSharing:
    def test_same_region_settings_share_one_entry(
        self, service, base_setting, equivalent_setting
    ):
        first = service.execute(anchored(base_setting))
        second = service.execute(anchored(equivalent_setting))
        assert first == second
        assert service.cache_info()["entries"] == 1
        assert service.metrics.hits["Q1"] == 1
        assert service.metrics.misses["Q1"] == 1

    def test_cross_region_settings_get_distinct_entries(
        self, service, base_setting
    ):
        service.execute(anchored(base_setting))
        service.execute(anchored(ParameterSetting(0.1, 0.5)))
        assert service.cache_info()["entries"] == 2
        assert service.metrics.hits["Q1"] == 0
        assert service.metrics.misses["Q1"] == 2

    def test_warm_answers_echo_the_callers_floats(
        self, service, base_setting, equivalent_setting
    ):
        service.execute(RecommendQuery(setting=base_setting))
        warm = service.execute(RecommendQuery(setting=equivalent_setting))
        assert service.metrics.hits["Q3"] == 1
        assert warm.setting == equivalent_setting
        other = ParameterSetting(0.1, 0.5)
        cold_compare = service.execute(CompareQuery(first=base_setting, second=other))
        warm_compare = service.execute(
            CompareQuery(first=equivalent_setting, second=other)
        )
        assert service.metrics.hits["Q2"] == 1
        assert warm_compare.first == equivalent_setting
        assert warm_compare.only_first == cold_compare.only_first
        assert warm_compare.only_second == cold_compare.only_second

    def test_served_containers_are_caller_owned(self, service, base_setting):
        first = service.execute(anchored(base_setting))
        expected = len(first)
        first.clear()
        again = service.execute(anchored(base_setting))
        assert len(again) == expected
        content_query = ContentQuery(setting=base_setting, items=(0,))
        content = service.execute(content_query)
        for ids in content.values():
            ids.clear()
        assert service.execute(content_query) != content or not content


class TestAgainstExplorer:
    def test_cached_answers_match_direct_execution(self, small_kb, base_setting):
        service = TaraService(small_kb)
        explorer = TaraExplorer(small_kb)
        tighter = ParameterSetting(
            base_setting.min_support * 1.5, base_setting.min_confidence
        )
        queries = [
            anchored(base_setting),
            CompareQuery(first=base_setting, second=tighter),
            RecommendQuery(setting=base_setting),
            ContentQuery(setting=base_setting, items=(1, 2)),
        ]
        for query in queries:
            cold = service.execute(query)
            warm = service.execute(query)
            assert cold == warm == explorer.execute(query) == service.uncached(query)

    def test_wrapping_an_existing_explorer(self, small_kb, base_setting):
        explorer = TaraExplorer(small_kb)
        service = TaraService(explorer)
        query = RecommendQuery(setting=base_setting)
        assert service.execute(query) == explorer.execute(query)

    def test_invalid_source_rejected(self):
        with pytest.raises(ValidationError, match="serve"):
            TaraService("not a knowledge base")  # type: ignore[arg-type]


class TestSnapshotRetirement:
    def test_publish_retires_scoped_entries_and_keeps_explicit_ones(
        self, small_windows, base_setting
    ):
        """The acceptance scenario: publishing a window retires exactly
        the generation-scoped entries (they die with their snapshot's
        segment); explicit-window entries keep serving because archived
        windows are immutable."""
        incremental = IncrementalTara(GenerationConfig(0.02, 0.1))
        incremental.publish(
            [small_windows.window(0), small_windows.window(1)]
        )
        service = TaraService(incremental)
        assert service.epoch == 2

        scoped = service.execute(anchored(base_setting))  # spec=None
        explicit_query = RecommendQuery(setting=base_setting, window=0)
        explicit = service.execute(explicit_query)
        assert service.cache_info()["entries"] == 2
        assert {len(t.measures) for t in scoped} == {2}

        incremental.publish([small_windows.window(2)])
        assert service.epoch == 3
        assert service.cache_info()["entries"] == 1  # segment died with its snapshot
        assert service.metrics.invalidations == 1

        rescoped = service.execute(anchored(base_setting))
        assert service.metrics.misses["Q1"] == 2  # recomputed, not served stale
        assert {len(t.measures) for t in rescoped} == {3}

        assert service.execute(explicit_query) == explicit
        assert service.metrics.hits["Q3"] == 1  # explicit entry survived

    def test_publish_with_empty_segment_is_harmless(self, small_windows):
        incremental = IncrementalTara(GenerationConfig(0.02, 0.1))
        incremental.publish([small_windows.window(0)])
        service = TaraService(incremental)
        incremental.publish([small_windows.window(1)])
        assert service.cache_info()["entries"] == 0
        assert service.metrics.invalidations == 0
        assert service.epoch == 2


class TestMetricsAndBounds:
    def test_evictions_reach_the_metrics(self, small_kb, base_setting):
        service = TaraService(small_kb, max_entries=1)
        service.execute(anchored(base_setting))
        service.execute(anchored(ParameterSetting(0.1, 0.5)))
        info = service.cache_info()
        assert info["entries"] == 1
        assert info["evictions"] == 1
        assert service.metrics.evictions == 1

    def test_counters_reconcile_with_requests(
        self, service, base_setting, equivalent_setting
    ):
        for setting in (base_setting, equivalent_setting, base_setting):
            service.execute(anchored(setting))
            service.execute(RecommendQuery(setting=setting))
        for query_class in ("Q1", "Q3"):
            assert (
                service.metrics.hits[query_class]
                + service.metrics.misses[query_class]
                == service.metrics.requests(query_class)
                == 3
            )
            assert (
                service.metrics.hit_latency[query_class].count
                + service.metrics.miss_latency[query_class].count
                == 3
            )

    def test_concurrent_clients_agree(self, small_kb, base_setting, equivalent_setting):
        service = TaraService(small_kb)
        expected = TaraExplorer(small_kb).execute(
            anchored(base_setting)
        )
        failures = []

        def client(setting):
            for _ in range(5):
                got = service.execute(anchored(setting))
                if got != expected:
                    failures.append(setting)

        threads = [
            threading.Thread(target=client, args=(setting,))
            for setting in (base_setting, equivalent_setting) * 4
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert service.metrics.requests("Q1") == 40
        assert service.metrics.hits["Q1"] + service.metrics.misses["Q1"] == 40
