"""``run_matrix``'s fingerprint gate, unit-tested with stubbed cells."""

import pytest

from repro.bench import offline
from repro.common.errors import ValidationError


def _fake_cells(fingerprint_of):
    """A ``_run_cell`` stand-in whose fingerprint is computed per cell."""

    def fake_run_cell(dataset, miner, repeat):
        return {
            "dataset": dataset,
            "transactions": 10,
            "windows": 2,
            "miner": miner,
            "wall_seconds": 1.0,
            "phases": {},
            "rules": 1,
            "archive_entries": 1,
            "archive_bytes": 1,
            "fingerprint": fingerprint_of(miner),
        }

    return fake_run_cell


def test_equal_fingerprints_pass(monkeypatch):
    monkeypatch.setattr(offline, "_run_cell", _fake_cells(lambda miner: "same"))
    results = offline.run_matrix(["retail"], ["apriori", "vertical"], 1)
    assert [cell["miner"] for cell in results] == ["apriori", "vertical"]


def test_cross_miner_divergence_aborts(monkeypatch):
    monkeypatch.setattr(offline, "_run_cell", _fake_cells(lambda miner: miner))
    with pytest.raises(ValidationError, match="vertical build of retail diverged"):
        offline.run_matrix(["retail"], ["apriori", "vertical"], 1)


class TestPhaseSummaryMarkdown:
    CELLS = [
        {
            "dataset": "retail",
            "miner": "apriori",
            "wall_seconds": 1.23456,
            "phases": {
                "frequent itemset generation": 0.5,
                "rule derivation": 0.25,
                "EPS index update": 0.125,
            },
        },
        {
            "dataset": "retail",
            "miner": "vertical",
            "wall_seconds": 0.9,
            "phases": {
                "frequent itemset generation": 0.4,
                "archival": 0.3,
            },
        },
    ]

    def test_one_row_per_cell_one_column_per_phase(self):
        text = offline.phase_summary_markdown(self.CELLS)
        lines = text.splitlines()
        header = next(line for line in lines if line.startswith("| dataset"))
        # Union of phase names, first-seen order.
        assert header == (
            "| dataset | miner | wall | "
            "frequent itemset generation | rule derivation | "
            "EPS index update | archival |"
        )
        rows = [line for line in lines if line.startswith("| retail")]
        assert rows[0] == (
            "| retail | apriori | 1.2346 | "
            "0.5000 | 0.2500 | 0.1250 | — |"
        )
        assert rows[1] == (
            "| retail | vertical | 0.9000 | "
            "0.4000 | — | — | 0.3000 |"
        )

    def test_empty_results_still_render(self):
        text = offline.phase_summary_markdown([])
        assert text.startswith("## repro bench")

    def test_summary_out_appends_markdown(self, tmp_path, monkeypatch):
        monkeypatch.setattr(offline, "_run_cell", _fake_cells(lambda miner: "same"))
        summary = tmp_path / "summary.md"
        summary.write_text("existing\n", encoding="utf-8")
        out = tmp_path / "bench.json"
        args = __import__("argparse").Namespace(
            quick=True,
            datasets=["retail"],
            out=str(out),
            repeat=1,
            miners=["vertical"],
            summary_out=str(summary),
        )
        assert offline.run_bench(args) == 0
        text = summary.read_text(encoding="utf-8")
        assert text.startswith("existing\n## repro bench")
        assert "| retail | vertical | 1.0000 |" in text
