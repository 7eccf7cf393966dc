"""The offline-to-first-answer path: one slice constructor, no collector passes.

The builder, the first touch of a lazily loaded v2 file and the eager
v1 load all build each window's slice with
:meth:`~repro.core.regions.WindowSlice.from_rows` from the same archive
rows, so their slices must be equal, item index included.  Saving and
the first touch run under :func:`~repro.common.gcscope.paused_gc`: a
collector pass there would rescan the knowledge base for nothing.
"""

import gc
import hashlib
import json
from contextlib import contextmanager

import pytest

from repro.common.errors import DataFormatError
from repro.core.persistence import (
    DEFAULT_FORMAT_VERSION,
    FORMAT_VERSION,
    load_knowledge_base,
    save_knowledge_base,
)

FORMATS = [FORMAT_VERSION, DEFAULT_FORMAT_VERSION]

#: SHA-256 of ``small_kb`` saved as v2: the container bytes are fixed
#: by the format, whatever codec path wrote them.
SMALL_KB_V2_SHA256 = "353e164b4ef58199400afac79af9296421eb694f6fd3c5697eb8a17346ee909b"


def slice_state(window_slice):
    """Everything a slice answers from, item index included."""
    return (
        window_slice.window,
        window_slice.generation_setting,
        window_slice.supports,
        window_slice.confidences,
        window_slice.location_count,
        window_slice.rule_count,
        window_slice._rows,
        window_slice._item_index,
    )


@pytest.fixture()
def saved_paths(small_kb, tmp_path):
    v1 = tmp_path / "kb.json"
    v2 = tmp_path / "kb.tara"
    save_knowledge_base(small_kb, v1, format_version=FORMAT_VERSION)
    save_knowledge_base(small_kb, v2)
    return v1, v2


@contextmanager
def counted_passes():
    """Count collector passes from a clean young generation on."""
    passes = [0]

    def count(phase, info):
        if phase == "start":
            passes[0] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        yield passes
    finally:
        gc.callbacks.remove(count)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector_state(request):
    if request.param:
        gc.enable()
    else:
        gc.disable()
    return request.param


class TestOneConstructor:
    def test_builder_lazy_and_v1_slices_are_equal(self, small_kb, saved_paths):
        v1_path, v2_path = saved_paths
        eager = load_knowledge_base(v1_path)
        lazy = load_knowledge_base(v2_path)
        try:
            assert small_kb.window_count > 1
            for window in range(small_kb.window_count):
                built = small_kb.slice(window)
                assert built.has_item_index
                assert slice_state(lazy.slice(window)) == slice_state(built)
                assert slice_state(eager.slice(window)) == slice_state(built)
            assert eager.rules_in_window == small_kb.rules_in_window
            spec = small_kb.all_windows()
            assert lazy.candidate_rules(spec) == small_kb.candidate_rules(spec)
        finally:
            lazy.close()

    def test_rules_in_window_come_from_the_rows(self, small_kb):
        for window, rule_ids in enumerate(small_kb.rules_in_window):
            assert rule_ids == [
                row[0] for row in small_kb.archive.window_entries(window)
            ]

    def test_v2_bytes_are_pinned(self, small_kb, tmp_path):
        path = tmp_path / "kb.tara"
        save_knowledge_base(small_kb, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SMALL_KB_V2_SHA256


class TestNoCollectorPasses:
    @pytest.mark.parametrize("format_version", FORMATS, ids=["v1", "v2"])
    def test_save(self, small_kb, tmp_path, collector_state, format_version):
        with counted_passes() as passes:
            save_knowledge_base(
                small_kb, tmp_path / "kb", format_version=format_version
            )
            observed = passes[0]
        assert observed == 0
        assert gc.isenabled() is collector_state

    def test_first_touch(self, saved_paths, collector_state):
        lazy = load_knowledge_base(saved_paths[1])
        try:
            for window in range(lazy.window_count):
                with counted_passes() as passes:
                    lazy.slice(window)
                    observed = passes[0]
                assert observed == 0
                assert gc.isenabled() is collector_state
        finally:
            lazy.close()

    def test_v1_load(self, saved_paths, collector_state):
        with counted_passes() as passes:
            load_knowledge_base(saved_paths[0])
            observed = passes[0]
        assert observed == 0
        assert gc.isenabled() is collector_state


class TestCollectorRestoredOnError:
    @pytest.mark.parametrize("format_version", FORMATS, ids=["v1", "v2"])
    def test_failed_save(self, small_kb, tmp_path, collector_state, format_version):
        with pytest.raises(OSError):
            save_knowledge_base(
                small_kb, tmp_path / "missing" / "kb", format_version=format_version
            )
        assert gc.isenabled() is collector_state

    def test_failed_first_touch(self, saved_paths, collector_state):
        lazy = load_knowledge_base(saved_paths[1])

        def corrupt_block(window):
            raise DataFormatError(f"window block {window} is corrupt")

        lazy.archive.source.window_entries = corrupt_block
        try:
            with pytest.raises(DataFormatError):
                lazy.slice(0)
        finally:
            lazy.close()
        assert gc.isenabled() is collector_state

    def test_failed_v1_load(self, saved_paths, collector_state):
        v1_path = saved_paths[0]
        payload = json.loads(v1_path.read_text())
        blob = next(iter(payload["archive"].values()))
        payload["archive"][str(len(payload["catalog"]) + 5)] = blob
        v1_path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="not in the catalog"):
            load_knowledge_base(v1_path)
        assert gc.isenabled() is collector_state
