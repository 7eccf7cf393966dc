"""The command-line interface, end to end through main()."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core import load_knowledge_base, save_knowledge_base


def write_v1(kb_file, path):
    """Rewrite a saved knowledge base as a v1 JSON envelope at *path*.

    Commands write only v2; the library's v1 writer makes the files the
    v1 read paths are tested on.
    """
    knowledge_base = load_knowledge_base(kb_file)
    try:
        save_knowledge_base(knowledge_base, path, format_version=1)
    finally:
        knowledge_base.close()
    return path


@pytest.fixture(scope="module")
def fimi_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "retail.fimi"
    code = main(
        ["generate", "retail", "--out", str(path), "--size", "1500", "--seed", "3"]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def kb_file(fimi_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "kb.json"
    code = main(
        [
            "build",
            "--input", str(fimi_file),
            "--out", str(path),
            "--batches", "3",
            "--min-support", "0.01",
            "--min-confidence", "0.2",
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def reports_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "faers.tsv"
    code = main(
        ["generate", "faers", "--out", str(path), "--size", "1500", "--seed", "7"]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_fimi_output_readable(self, fimi_file, capsys):
        from repro.data.io import read_fimi

        assert len(read_fimi(fimi_file)) == 1500

    def test_faers_output_readable(self, reports_file):
        from repro.maras.io import read_reports

        assert len(read_reports(reports_file)) == 1500

    def test_quest_and_webdocs(self, tmp_path):
        for dataset in ("quest", "webdocs"):
            out = tmp_path / f"{dataset}.fimi"
            assert main(
                ["generate", dataset, "--out", str(out), "--size", "300"]
            ) == 0
            assert out.exists()


class TestBuildAndQuery:
    def test_build_reports_summary(self, kb_file, capsys):
        assert kb_file.exists()

    def test_mine(self, kb_file, capsys):
        code = main(
            [
                "mine",
                "--kb", str(kb_file),
                "--minsupp", "0.02",
                "--minconf", "0.4",
                "--top", "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "rules in window" in output
        assert "=>" in output

    def test_mine_specific_window(self, kb_file, capsys):
        code = main(
            [
                "mine",
                "--kb", str(kb_file),
                "--minsupp", "0.02",
                "--minconf", "0.4",
                "--window", "0",
            ]
        )
        assert code == 0
        assert "window 0" in capsys.readouterr().out

    def test_recommend(self, kb_file, capsys):
        code = main(
            [
                "recommend",
                "--kb", str(kb_file),
                "--minsupp", "0.02",
                "--minconf", "0.4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "same" in output and "rules for any" in output

    def test_compare(self, kb_file, capsys):
        code = main(
            [
                "compare",
                "--kb", str(kb_file),
                "--minsupp", "0.015", "--minconf", "0.3",
                "--second-minsupp", "0.03", "--second-minconf", "0.3",
                "--mode", "exact",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "only under the first setting" in output
        assert "exact match" in output


class TestMarasCommand:
    def test_signals_printed(self, reports_file, capsys):
        code = main(
            ["maras", "--reports", str(reports_file), "--min-count", "4", "--top", "5"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "signals" in output
        assert "score=" in output


class TestBenchCommand:
    def test_quick_writes_schema_json(self, tmp_path, monkeypatch, capsys):
        import repro.bench as bench
        import repro.bench.workloads as workloads

        # Shrink the quick workload so the matrix builds in well under a
        # second; the real sizes are calibrated for wall-clock signal,
        # not for the test suite.
        monkeypatch.setitem(workloads._WORKLOADS, "retail", (150, 3, 0.05, 0.30))
        out = tmp_path / "BENCH_offline.json"
        code = main(
            [
                "bench", "--quick",
                "--out", str(out),
                "--repeat", "1",
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["schema"] == bench.SCHEMA == "repro-bench-offline/2"
        assert payload["quick"] is True
        assert payload["host"]["cpu_count"] >= 1
        miners = {cell["miner"] for cell in payload["results"]}
        assert miners == {"apriori", "vertical"}
        fingerprints = {cell["fingerprint"] for cell in payload["results"]}
        # One fingerprint across *all* cells: cross-miner equivalence is
        # enforced before writing.
        assert len(fingerprints) == 1
        assert "speedups" not in payload
        assert all("strategy" not in cell for cell in payload["results"])

    def test_miners_filter_restricts_matrix(self, tmp_path, monkeypatch):
        import repro.bench.workloads as workloads

        monkeypatch.setitem(workloads._WORKLOADS, "retail", (150, 3, 0.05, 0.30))
        out = tmp_path / "BENCH_offline.json"
        code = main(
            [
                "bench", "--quick",
                "--out", str(out),
                "--repeat", "1",
                "--miners", "vertical",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert {cell["miner"] for cell in payload["results"]} == {"vertical"}

    def test_unknown_miner_filter_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick", "--miners", "magic", "--out", "-"])
        assert excinfo.value.code == 2
        assert "--miners" in capsys.readouterr().err

    def test_invalid_repeat_is_domain_error(self, tmp_path, capsys):
        code = main(["bench", "--quick", "--repeat", "0", "--out", "-"])
        assert code == 1
        assert "--repeat" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "retired", ["bench-online", "bench-serve", "bench-ingest"]
    )
    def test_served_path_harnesses_are_unknown_commands(self, retired, capsys):
        # perfbench/ measures the served paths; tier-1 holds their gates.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([retired])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestConvertAndKbInfo:
    def test_kb_info_v2(self, kb_file, capsys):
        assert main(["kb-info", str(kb_file)]) == 0
        out = capsys.readouterr().out
        assert "format v2 (segmented container)" in out
        assert "rules/shard" in out
        assert "--memory-budget" in out

    def test_kb_info_v1(self, kb_file, tmp_path, capsys):
        v1 = write_v1(kb_file, tmp_path / "kb.v1.json")
        assert main(["kb-info", str(v1)]) == 0
        out = capsys.readouterr().out
        assert "format v1" in out
        assert "eager JSON envelope" in out
        assert "repro convert" in out

    def test_convert_roundtrip_bytes_identical(self, kb_file, tmp_path, capsys):
        # v2 -> v1 -> v2 must reproduce the original container exactly:
        # the write path is canonical.
        v1 = write_v1(kb_file, tmp_path / "kb.v1.json")
        v2 = tmp_path / "kb.back.tara2"
        assert main(["convert", str(v1), str(v2)]) == 0
        assert "format v1" in capsys.readouterr().out
        assert v2.read_bytes() == kb_file.read_bytes()

    def test_build_and_convert_write_only_v2(self, kb_file, tmp_path, capsys):
        out = tmp_path / "kb.json"
        for argv in (
            ["build", "--input", "x", "--out", str(out),
             "--min-support", "0.02", "--min-confidence", "0.3"],
            ["convert", str(kb_file), str(out)],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv + ["--format", "1"])
            assert excinfo.value.code == 2
            assert "--format" in capsys.readouterr().err

    def test_kb_info_missing_file_is_domain_error(self, tmp_path, capsys):
        assert main(["kb-info", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_mine_accepts_memory_budget_suffix(self, kb_file, capsys):
        code = main(
            [
                "mine",
                "--kb", str(kb_file),
                "--minsupp", "0.02",
                "--minconf", "0.4",
                "--memory-budget", "4M",
            ]
        )
        assert code == 0
        assert "rules in window" in capsys.readouterr().out

    def test_nonpositive_memory_budget_is_usage_error(self, kb_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "mine",
                    "--kb", str(kb_file),
                    "--minsupp", "0.02",
                    "--minconf", "0.4",
                    "--memory-budget", "0",
                ]
            )
        assert excinfo.value.code == 2
        assert "memory budget" in capsys.readouterr().err


class TestBenchPersistCommand:
    def test_writes_schema_json_and_summary(self, tmp_path, monkeypatch, capsys):
        import repro.bench as bench
        import repro.bench.workloads as workloads

        # Same shrink trick as the offline bench test: a tiny retail
        # workload keeps the build+probe matrix fast; the probe children
        # still run as real subprocesses measuring real RSS.
        monkeypatch.setitem(workloads._WORKLOADS, "retail", (150, 3, 0.05, 0.30))
        out = tmp_path / "BENCH_persist.json"
        summary = tmp_path / "summary.md"
        code = main(
            [
                "bench-persist", "--quick",
                "--scales", "1",
                "--out", str(out),
                "--summary-out", str(summary),
            ]
        )
        assert code == 0
        assert "rss ratio" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["schema"] == bench.PERSIST_SCHEMA
        assert payload["quick"] is True
        cell = payload["results"][0]
        assert set(cell["loaders"]) == {"v1-eager", "v2-lazy"}
        eager = cell["loaders"]["v1-eager"]
        lazy = cell["loaders"]["v2-lazy"]
        # Fingerprint equality is enforced before the file is written.
        assert eager["fingerprint"] == lazy["fingerprint"]
        assert eager["storage"] is None
        assert lazy["storage"]["slices_materialized"] > 0
        assert eager["peak_rss_bytes"] > 0 and lazy["peak_rss_bytes"] > 0
        # 1x is below the gate threshold: recorded but not gated.
        assert cell["rss_gated"] is False
        assert "| scale | loader |" in summary.read_text()

    def test_invalid_budget_is_domain_error(self, capsys):
        code = main(["bench-persist", "--memory-budget", "-1", "--out", "-"])
        assert code == 1
        assert "--memory-budget" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_kb_returns_one(self, tmp_path, capsys):
        code = main(
            [
                "mine",
                "--kb", str(tmp_path / "nope.json"),
                "--minsupp", "0.1",
                "--minconf", "0.1",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_query_below_generation_threshold(self, kb_file, capsys):
        code = main(
            [
                "mine",
                "--kb", str(kb_file),
                "--minsupp", "0.001",
                "--minconf", "0.4",
            ]
        )
        assert code == 1
        assert "generation thresholds" in capsys.readouterr().err

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestThresholdFlagUnification:
    """--minsupp/--minconf everywhere, required; legacy spellings are gone."""

    def test_mine_accepts_new_spelling(self, kb_file, capsys):
        code = main(
            ["mine", "--kb", str(kb_file), "--minsupp", "0.02", "--minconf", "0.4"]
        )
        assert code == 0
        assert "rules in window" in capsys.readouterr().out

    def test_recommend_accepts_new_spelling(self, kb_file, capsys):
        code = main(
            ["recommend", "--kb", str(kb_file), "--minsupp", "0.02", "--minconf", "0.4"]
        )
        assert code == 0
        assert "rules for any" in capsys.readouterr().out

    def test_mixing_spellings_is_a_usage_error(self, kb_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "mine",
                    "--kb", str(kb_file),
                    "--minsupp", "0.02",
                    "--min-support", "0.02",
                    "--minconf", "0.4",
                ]
            )
        assert excinfo.value.code == 2

    def test_compare_accepts_new_spelling(self, kb_file, capsys):
        code = main(
            [
                "compare",
                "--kb", str(kb_file),
                "--minsupp", "0.015", "--minconf", "0.3",
                "--second-minsupp", "0.03", "--second-minconf", "0.3",
                "--mode", "exact",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "only under the first setting" in output

    def test_compare_mixed_spellings_rejected(self, kb_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "compare", "--kb", str(kb_file),
                    "--first", "0.015", "0.3",
                    "--minsupp", "0.015", "--minconf", "0.3",
                    "--second-minsupp", "0.03", "--second-minconf", "0.3",
                ]
            )
        assert excinfo.value.code == 2
        assert "--first" in capsys.readouterr().err

    def test_compare_incomplete_setting_rejected(self, kb_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "compare", "--kb", str(kb_file),
                    "--minsupp", "0.015",
                    "--second-minsupp", "0.03", "--second-minconf", "0.3",
                ]
            )
        assert excinfo.value.code == 2
        assert "--minconf" in capsys.readouterr().err
