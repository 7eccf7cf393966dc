"""Concurrency-contract rules (R006-R008), crash capture, index cache.

Each rule is exercised against on-disk fixture modules under
``fixtures/`` — a firing variant and a clean variant per rule — plus
suppression behaviour, the exit-3 crashed-rule contract, and the
``--index-cache`` round trip.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.base import (
    ProjectRule,
    Rule,
    RuleScope,
    get_rule,
)
from repro.analysis.project import build_index, index_module
from repro.analysis.runner import lint_paths, lint_source

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fixture_findings(rule_id, name, path):
    """Run one rule over a fixture file at a virtual logical path."""
    source = (FIXTURES / name).read_text("utf-8")
    return lint_source(source, path, [get_rule(rule_id)])


class TestR006LockDiscipline:
    PATH = "repro/service/fixture.py"

    def test_unguarded_accesses_fire(self):
        findings, _ = fixture_findings("R006", "r006_unguarded.py", self.PATH)
        assert [f.rule_id for f in findings] == ["R006"] * 3
        messages = " | ".join(f.message for f in findings)
        assert "Service.epoch" in messages  # public read
        assert "Service.advance" in messages  # public write
        assert "Service._bump" in messages  # private, unlocked call site

    def test_disciplined_class_is_clean(self):
        findings, _ = fixture_findings("R006", "r006_guarded.py", self.PATH)
        assert findings == []

    def test_init_is_exempt(self):
        source = (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._state = 0  # repro-lint: guarded-by=_lock\n"
            "        self._state = self._state + 1\n"
        )
        findings, _ = lint_source(source, self.PATH, [get_rule("R006")])
        assert findings == []

    def test_guarded_by_unknown_lock_flagged(self):
        source = (
            "class S:\n"
            "    def __init__(self):\n"
            "        self._state = 0  # repro-lint: guarded-by=_lock\n"
        )
        findings, _ = lint_source(source, self.PATH, [get_rule("R006")])
        assert len(findings) == 1
        assert "never assigns self._lock" in findings[0].message

    def test_nested_def_resets_held_locks(self):
        source = (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._state = 0  # repro-lint: guarded-by=_lock\n"
            "    def work(self):\n"
            "        with self._lock:\n"
            "            def later():\n"
            "                return self._state\n"
            "            return later\n"
        )
        findings, _ = lint_source(source, self.PATH, [get_rule("R006")])
        assert len(findings) == 1  # the deferred read runs lock-free

    def test_undeclared_nesting_flagged(self):
        source = (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "    def work(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
        )
        findings, _ = lint_source(source, self.PATH, [get_rule("R006")])
        assert len(findings) == 1
        assert "no declared lock-order" in findings[0].message

    def test_declared_nesting_order_respected_and_violated(self):
        template = (
            "import threading\n"
            "# repro-lint: lock-order=S._a,S._b\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "    def work(self):\n"
            "        with self.{outer}:\n"
            "            with self.{inner}:\n"
            "                pass\n"
        )
        ok, _ = lint_source(
            template.format(outer="_a", inner="_b"),
            self.PATH,
            [get_rule("R006")],
        )
        assert ok == []
        bad, _ = lint_source(
            template.format(outer="_b", inner="_a"),
            self.PATH,
            [get_rule("R006")],
        )
        assert len(bad) == 1
        assert "violates the declared lock order" in bad[0].message

    def test_suppression_applies(self):
        source = (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._state = 0  # repro-lint: guarded-by=_lock\n"
            "    def peek(self):\n"
            "        return self._state  # repro-lint: disable=R006\n"
        )
        findings, suppressed = lint_source(
            source, self.PATH, [get_rule("R006")]
        )
        assert findings == [] and suppressed == 1


class TestR007PublishImmutability:
    PATH = "repro/service/fixture.py"

    def test_mutable_publish_fires(self):
        findings, _ = fixture_findings(
            "R007", "r007_mutable_publish.py", self.PATH
        )
        assert [f.rule_id for f in findings] == ["R007"] * 5
        messages = " | ".join(f.message for f in findings)
        # A list into the cache and a bytearray body.
        assert messages.count("ResponseCache.put;") == 2
        assert "publish boundary" in messages  # dict out of freeze()
        assert "frozen dataclass Answer" in messages  # Dict field
        assert "ResponseCache.put_gzip" in messages  # list body

    def test_frozen_publish_is_clean(self):
        findings, _ = fixture_findings(
            "R007", "r007_frozen_publish.py", self.PATH
        )
        assert findings == []

    def test_out_of_scope_module_is_skipped(self):
        findings, _ = fixture_findings(
            "R007", "r007_mutable_publish.py", "repro/mining/fixture.py"
        )
        assert findings == []

    def test_unknown_values_pass(self):
        source = (
            "class ResponseCache:\n"
            "    def put(self, key, value, epoch):\n"
            "        return 0\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._cache = ResponseCache()\n"
            "    def store(self, key, value):\n"
            "        self._cache.put(key, value, 1)\n"
        )
        findings, _ = lint_source(source, self.PATH, [get_rule("R007")])
        assert findings == []  # parameter origin is opaque, not provable


class TestR008EpochDiscipline:
    PATH = "repro/service/fixture.py"

    def test_epoch_ordering_fires(self):
        findings, _ = fixture_findings(
            "R008", "r008_epoch_ordering.py", self.PATH
        )
        assert [f.rule_id for f in findings] == ["R008"]
        assert "ordering comparison" in findings[0].message

    def test_non_epoch_ordering_unaffected(self):
        source = "def f(a, b):\n    return a < b\n"
        findings, _ = lint_source(source, self.PATH, [get_rule("R008")])
        assert findings == []

    def test_cross_epoch_recheck_fires(self):
        findings, _ = fixture_findings(
            "R008", "r008_cross_epoch_recheck.py", self.PATH
        )
        assert [f.rule_id for f in findings] == ["R008"]
        assert "outside class Snapshot" in findings[0].message

    def test_snapshot_equality_and_sentinels_are_clean(self):
        findings, _ = fixture_findings(
            "R008", "r008_snapshot_equality.py", "repro/core/snapshot.py"
        )
        assert findings == []

    def test_single_epoch_equality_unaffected(self):
        # One epoch-valued operand against a plain value classifies an
        # entry; it is not a relationship between two epochs.
        source = "def f(entry, epoch):\n    return entry.tag == epoch\n"
        findings, _ = lint_source(source, self.PATH, [get_rule("R008")])
        assert findings == []


class _AlwaysCrashes(Rule):
    rule_id = "T900"
    title = "crashes on purpose"
    fix_hint = "n/a"
    scope = RuleScope()

    def check(self, tree, context):
        raise RuntimeError("deliberate per-file crash")


class _ProjectCrashes(ProjectRule):
    rule_id = "T901"
    title = "crashes on purpose (project)"
    fix_hint = "n/a"
    scope = RuleScope()

    def check_project(self, index):
        raise RuntimeError("deliberate project crash")


class TestCrashedRuleExitCode:
    def make_tree(self, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "mod.py").write_text("x = 1\n")
        return tmp_path

    def test_crash_yields_exit_three_and_traceback(self, tmp_path):
        report = lint_paths([self.make_tree(tmp_path)], [_AlwaysCrashes()])
        assert report.exit_code == 3
        assert not report.is_clean
        crash = report.crashes[0]
        assert crash.rule_id == "T900"
        assert "deliberate per-file crash" in crash.error
        assert "RuntimeError" in crash.traceback
        assert "report incomplete" in report.format_text()

    def test_project_rule_crash_captured(self, tmp_path):
        report = lint_paths([self.make_tree(tmp_path)], [_ProjectCrashes()])
        assert report.exit_code == 3
        assert report.crashes[0].rule_id == "T901"
        assert report.crashes[0].path == "<project>"

    def test_crash_does_not_hide_other_rules(self, tmp_path):
        tree = tmp_path / "repro" / "core"
        tree.mkdir(parents=True)
        (tree / "bad.py").write_text("flag = value == 0.0\n")
        report = lint_paths(
            [tmp_path], [get_rule("R001"), _AlwaysCrashes()]
        )
        assert report.exit_code == 3  # crash dominates the findings exit
        assert [f.rule_id for f in report.findings] == ["R001"]

    def test_crash_serialized_in_json(self, tmp_path):
        report = lint_paths([self.make_tree(tmp_path)], [_AlwaysCrashes()])
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["version"] == 2
        assert payload["clean"] is False
        assert payload["crashes"][0]["rule"] == "T900"
        assert "RuntimeError" in payload["crashes"][0]["traceback"]


class TestIndexCache:
    def make_tree(self, tmp_path):
        pkg = tmp_path / "repro" / "service"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0  # repro-lint: guarded-by=_lock\n"
            "    def peek(self):\n"
            "        return self._n\n"
        )
        return tmp_path, pkg / "mod.py"

    def test_cache_round_trip_preserves_report(self, tmp_path):
        tree, _module = self.make_tree(tmp_path)
        cache = tmp_path / "cache" / "index.pickle"
        cold = lint_paths([tree], index_cache=cache)
        assert cache.exists()
        warm = lint_paths([tree], index_cache=cache)
        assert warm.findings == cold.findings
        assert [f.rule_id for f in warm.findings] == ["R006"]

    def test_stale_cache_is_rebuilt(self, tmp_path):
        tree, module = self.make_tree(tmp_path)
        cache = tmp_path / "index.pickle"
        first = lint_paths([tree], index_cache=cache)
        assert [f.rule_id for f in first.findings] == ["R006"]
        fixed = module.read_text().replace(
            "        return self._n\n",
            "        with self._lock:\n            return self._n\n",
        )
        module.write_text(fixed)
        second = lint_paths([tree], index_cache=cache)
        assert second.findings == ()

    def test_corrupt_cache_is_ignored(self, tmp_path):
        tree, _module = self.make_tree(tmp_path)
        cache = tmp_path / "index.pickle"
        cache.write_bytes(b"not a pickle")
        report = lint_paths([tree], index_cache=cache)
        assert [f.rule_id for f in report.findings] == ["R006"]


class TestProjectIndex:
    def test_syntax_error_module_is_omitted(self):
        assert index_module("repro/x.py", "x.py", "def f(:\n") is None

    def test_cross_module_class_resolution(self):
        cache_src = (
            "class RegionKeyedCache:\n"
            "    def put(self, key, value, epoch):\n"
            "        return 0\n"
        )
        service_src = (
            "class S:\n"
            "    def __init__(self):\n"
            "        self._cache = RegionKeyedCache()\n"
        )
        index = build_index(
            [
                ("repro/service/cache.py", "cache.py", cache_src),
                ("repro/service/service.py", "service.py", service_src),
            ]
        )
        info = index.resolve_class("RegionKeyedCache")
        assert info is not None and "put" in info.methods
        owner = index.modules["repro/service/service.py"].classes["S"]
        assert owner.attr_classes["_cache"] == "RegionKeyedCache"

    def test_ambiguous_class_name_resolves_to_none(self):
        src = "class Dup:\n    pass\n"
        index = build_index(
            [
                ("repro/a.py", "a.py", src),
                ("repro/b.py", "b.py", src),
            ]
        )
        assert index.resolve_class("Dup") is None

    def test_directives_are_indexed(self):
        src = (
            "# repro-lint: lock-order=A._x,B._y\n"
            "import threading\n"
            "class A:\n"
            "    def __init__(self):\n"
            "        self._x = threading.Lock()\n"
            "        self._n = 0  # repro-lint: guarded-by=_x\n"
            "    # repro-lint: publish\n"
            "    def out(self):\n"
            "        return self._n\n"
        )
        module = index_module("repro/a.py", "a.py", src)
        assert module is not None
        assert module.lock_orders == (("A._x", "B._y"),)
        info = module.classes["A"]
        assert info.guarded == {"_n": "_x"}
        assert info.lock_attrs == frozenset({"_x"})
        out_line = info.methods["out"].lineno
        assert out_line in module.publish_lines
