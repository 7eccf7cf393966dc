"""The lint pass is self-hosting: the merged tree must be clean.

These are the acceptance tests the CI gate relies on: the real source
tree produces zero findings (suppressions carry their rationale in the
code), and the CLI surfaces the same result through both entry points.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.base import get_rule
from repro.analysis.runner import lint_paths, lint_source
from repro.cli import main

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="module")
def tree_report():
    return lint_paths([SRC])


class TestTreeIsClean:
    def test_no_findings(self, tree_report):
        assert tree_report.findings == (), tree_report.format_text()

    def test_whole_tree_was_visited(self, tree_report):
        assert tree_report.files_checked >= 70

    def test_suppressions_are_few_and_deliberate(self, tree_report):
        # Every suppression in the tree carries a rationale comment; a
        # sudden jump here means someone is silencing rather than fixing.
        assert 0 < tree_report.suppressed_count <= 10

    def test_no_rule_crashed(self, tree_report):
        assert tree_report.crashes == ()


class TestLockRemovalSentinel:
    """Deleting a ``with self._lock:`` from the real tree must fail R006.

    This is the contract CI stakes its value on: the rule set is not
    just clean on the tree, it actually *notices* when the tree's lock
    discipline regresses.
    """

    def test_removing_snapshot_lock_trips_r006(self):
        source = (SRC / "core" / "snapshot.py").read_text("utf-8")
        target = (
            "        with self._lock:\n"
            "            return self._refs\n"
        )
        assert target in source, "refs property changed; update sentinel"
        mutated = source.replace(target, "        return self._refs\n")
        findings, _ = lint_source(
            mutated, "repro/core/snapshot.py", [get_rule("R006")]
        )
        assert [f.rule_id for f in findings] == ["R006"]
        assert "self._refs" in findings[0].message

    def test_unmutated_snapshot_is_clean(self):
        source = (SRC / "core" / "snapshot.py").read_text("utf-8")
        findings, _ = lint_source(
            source, "repro/core/snapshot.py", [get_rule("R006")]
        )
        assert findings == []

    def test_unmutated_service_is_clean(self):
        source = (SRC / "service" / "service.py").read_text("utf-8")
        findings, _ = lint_source(
            source, "repro/service/service.py", [get_rule("R006")]
        )
        assert findings == []


class TestCliLint:
    def test_lint_subcommand_clean_tree_exit_zero(self, capsys):
        exit_code = main(["lint", str(SRC)])
        assert exit_code == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        exit_code = main(["lint", str(SRC), "--format", "json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["files_checked"] >= 70

    def test_lint_flags_violations_with_rule_ids(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core"
        bad.mkdir(parents=True)
        (bad / "fixture.py").write_text(
            "import time\n"
            "@dataclass\n"
            "class Loc:\n"
            "    x: int\n"
            "def f(v):\n"
            "    if v == 0.0:\n"
            "        raise ValueError('x')\n"
            "    return time.time()\n"
        )
        exit_code = main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert exit_code == 1
        for rule_id in ("R001", "R003", "R004", "R005"):
            assert rule_id in out, out

    def test_lint_select_restricts_rules(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core"
        bad.mkdir(parents=True)
        (bad / "fixture.py").write_text("x == 0.0\nraise ValueError('x')\n")
        exit_code = main(["lint", str(tmp_path), "--select", "R003"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "R003" in out and "R001" not in out

    def test_lint_unknown_select_errors(self, capsys):
        exit_code = main(["lint", str(SRC), "--select", "R999"])
        assert exit_code == 1 or exit_code == 2  # domain error path
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules_catalogue(self, capsys):
        exit_code = main(["lint", "--list-rules"])
        assert exit_code == 0
        out = capsys.readouterr().out
        for rule_id in (
            "R001",
            "R002",
            "R003",
            "R004",
            "R005",
            "R006",
            "R007",
            "R008",
        ):
            assert rule_id in out
        assert "R009" not in out  # retired with its subject, run_ordered

    def test_lint_index_cache_cli_round_trip(self, tmp_path, capsys):
        cache = tmp_path / "lint-index.pickle"
        assert main(["lint", str(SRC), "--index-cache", str(cache)]) == 0
        capsys.readouterr()
        assert cache.exists()
        assert main(["lint", str(SRC), "--index-cache", str(cache)]) == 0
        assert "clean" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_m_repro_analysis(self, capsys):
        from repro.analysis.cli import main as lint_main

        assert lint_main([str(SRC)]) == 0
        assert "clean" in capsys.readouterr().out
