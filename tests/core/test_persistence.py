"""Knowledge-base persistence: save/load roundtrip fidelity, both formats."""

import json

import pytest

from repro.common.errors import DataFormatError
from repro.core import (
    ContentQuery,
    LazyTaraKnowledgeBase,
    ParameterSetting,
    RollupQuery,
    TaraExplorer,
)
from repro.core.persistence import (
    DEFAULT_FORMAT_VERSION,
    FORMAT_VERSION,
    load_knowledge_base,
    save_knowledge_base,
)
from repro.data import PeriodSpec

FORMATS = [FORMAT_VERSION, DEFAULT_FORMAT_VERSION]


@pytest.fixture(params=FORMATS, ids=["v1", "v2"])
def saved_path(request, small_kb, tmp_path):
    path = tmp_path / "kb.tara"
    save_knowledge_base(small_kb, path, format_version=request.param)
    return path


@pytest.fixture()
def load():
    """``load_knowledge_base`` that closes every v2 file it opened at teardown."""
    opened = []

    def loader(path, **kwargs):
        knowledge_base = load_knowledge_base(path, **kwargs)
        if isinstance(knowledge_base, LazyTaraKnowledgeBase):
            opened.append(knowledge_base)
        return knowledge_base

    yield loader
    for knowledge_base in opened:
        knowledge_base.close()


@pytest.fixture()
def saved_v1_path(small_kb, tmp_path):
    path = tmp_path / "kb.json"
    save_knowledge_base(small_kb, path, format_version=FORMAT_VERSION)
    return path


class TestRoundtrip:
    @pytest.mark.parametrize("format_version", FORMATS, ids=["v1", "v2"])
    def test_file_written(self, small_kb, tmp_path, format_version):
        path = tmp_path / "kb.tara"
        written = save_knowledge_base(small_kb, path, format_version=format_version)
        assert written == path.stat().st_size
        assert written > 0

    def test_default_write_format_is_v2(self, load, small_kb, tmp_path):
        path = tmp_path / "kb.tara"
        save_knowledge_base(small_kb, path)
        assert isinstance(load(path), LazyTaraKnowledgeBase)

    def test_unknown_format_version_rejected(self, small_kb, tmp_path):
        with pytest.raises(DataFormatError, match="format version"):
            save_knowledge_base(small_kb, tmp_path / "kb.tara", format_version=7)

    def test_config_restored(self, load, small_kb, saved_path):
        loaded = load(saved_path)
        assert loaded.config == small_kb.config

    def test_catalog_restored_in_order(self, load, small_kb, saved_path):
        loaded = load(saved_path)
        assert len(loaded.catalog) == len(small_kb.catalog)
        for rule_id in range(len(small_kb.catalog)):
            assert loaded.catalog.get(rule_id) == small_kb.catalog.get(rule_id)

    def test_archive_series_identical(self, load, small_kb, saved_path):
        loaded = load(saved_path)
        for rule_id in small_kb.archive.rule_ids():
            original = [
                (m.window, m.rule_count, m.antecedent_count)
                for m in small_kb.archive.series(rule_id)
            ]
            restored = [
                (m.window, m.rule_count, m.antecedent_count)
                for m in loaded.archive.series(rule_id)
            ]
            assert original == restored

    def test_encoded_series_byte_identical(self, load, small_kb, saved_path):
        loaded = load(saved_path)
        assert sorted(loaded.archive.rule_ids()) == sorted(
            small_kb.archive.rule_ids()
        )
        for rule_id in small_kb.archive.rule_ids():
            assert loaded.archive.encoded_series(
                rule_id
            ) == small_kb.archive.encoded_series(rule_id)

    def test_every_query_answer_identical(self, load, small_kb, saved_path):
        loaded = load(saved_path)
        original_explorer = TaraExplorer(small_kb)
        loaded_explorer = TaraExplorer(loaded)
        for supp, conf in [(0.02, 0.1), (0.05, 0.3), (0.1, 0.5)]:
            setting = ParameterSetting(supp, conf)
            for window in range(small_kb.window_count):
                assert original_explorer.ruleset(
                    setting, window
                ) == loaded_explorer.ruleset(setting, window)

    def test_item_index_rebuilt_when_configured(self, load, small_kb, saved_path):
        loaded = load(saved_path)
        assert loaded.slice(0).has_item_index == small_kb.slice(0).has_item_index
        if loaded.slice(0).has_item_index:
            setting = ParameterSetting(0.05, 0.3)
            explorer = TaraExplorer(loaded)
            original = TaraExplorer(small_kb)
            query = ContentQuery(
                setting=setting, items=(3,), spec=PeriodSpec([1])
            )
            assert explorer.execute(query) == original.execute(query)

    def test_rollup_identical(self, load, small_kb, saved_path):
        loaded = load(saved_path)
        spec = PeriodSpec(range(small_kb.window_count))
        setting = ParameterSetting(0.03, 0.2)
        query = RollupQuery(setting=setting, spec=spec)
        original = TaraExplorer(small_kb).execute(query)
        restored = TaraExplorer(loaded).execute(query)
        assert [e.rule_id for e in original.certain] == [
            e.rule_id for e in restored.certain
        ]
        assert original.max_support_error == restored.max_support_error

    def test_candidate_rules_identical(self, load, small_kb, saved_path):
        loaded = load(saved_path)
        spec = PeriodSpec(range(small_kb.window_count))
        assert loaded.candidate_rules(spec) == small_kb.candidate_rules(spec)

    def test_convert_v1_to_v2_round_trip(self, load, small_kb, saved_v1_path, tmp_path):
        eager = load(saved_v1_path)
        v2_path = tmp_path / "kb.tara2"
        save_knowledge_base(eager, v2_path)
        lazy = load(v2_path)
        assert isinstance(lazy, LazyTaraKnowledgeBase)
        for rule_id in small_kb.archive.rule_ids():
            assert lazy.archive.encoded_series(
                rule_id
            ) == small_kb.archive.encoded_series(rule_id)


class TestErrorHandling:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_knowledge_base(tmp_path / "nope.json")

    def test_missing_file_chains_cause(self, tmp_path):
        # R003 regression: the OSError must survive as __cause__ so the
        # operator sees *why* the file was unreadable, not just that it was.
        with pytest.raises(DataFormatError) as excinfo:
            load_knowledge_base(tmp_path / "nope.json")
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("this is not json")
        with pytest.raises(DataFormatError):
            load_knowledge_base(path)

    def test_garbage_file_chains_cause(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("this is not json")
        with pytest.raises(DataFormatError) as excinfo:
            load_knowledge_base(path)
        assert isinstance(excinfo.value.__cause__, json.JSONDecodeError)

    def test_wrong_version(self, saved_v1_path):
        payload = json.loads(saved_v1_path.read_text())
        payload["format_version"] = 3
        saved_v1_path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="format version"):
            load_knowledge_base(saved_v1_path)

    def test_inconsistent_windows(self, saved_v1_path):
        payload = json.loads(saved_v1_path.read_text())
        payload["window_sizes"] = payload["window_sizes"][:-1]
        saved_v1_path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="inconsistent"):
            load_knowledge_base(saved_v1_path)

    def test_missing_config_key(self, saved_v1_path):
        payload = json.loads(saved_v1_path.read_text())
        del payload["config"]["miner"]
        saved_v1_path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="config"):
            load_knowledge_base(saved_v1_path)
