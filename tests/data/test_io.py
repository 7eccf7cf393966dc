"""FIMI and report-TSV I/O roundtrips and error handling."""

import pytest

from repro.common.errors import DataFormatError
from repro.data.database import TransactionDatabase
from repro.data.io import read_fimi, write_fimi
from repro.data.items import ItemVocabulary
from repro.maras.io import read_reports, write_reports
from repro.maras.reports import Report, ReportDatabase


@pytest.fixture
def db() -> TransactionDatabase:
    return TransactionDatabase.from_itemlists(
        [[3, 1], [2], [5, 0, 9]], times=[10, 20, 20]
    )


class TestFimiRoundtrip:
    def test_timed_roundtrip(self, db, tmp_path):
        path = tmp_path / "data.fimi"
        assert write_fimi(db, path) == 3
        restored = read_fimi(path)
        assert [(t.items, t.time) for t in restored] == [
            (t.items, t.time) for t in db
        ]

    def test_plain_roundtrip_gets_dense_clock(self, db, tmp_path):
        path = tmp_path / "plain.fimi"
        write_fimi(db, path, include_times=False)
        restored = read_fimi(path)
        assert [t.items for t in restored] == [t.items for t in db]
        assert [t.time for t in restored] == [0, 1, 2]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.fimi"
        path.write_text("1 2\n\n3\n")
        assert len(read_fimi(path)) == 2

    def test_standard_fimi_file_readable(self, tmp_path):
        """A file in the exact format of fimi.uantwerpen.be downloads."""
        path = tmp_path / "retail.dat"
        path.write_text("0 1 2 3\n30 31 32\n33 34 35\n")
        restored = read_fimi(path)
        assert restored[0].items == (0, 1, 2, 3)


class TestFimiErrors:
    def test_mixed_formats_rejected(self, tmp_path):
        path = tmp_path / "mixed.fimi"
        path.write_text("1: 2 3\n4 5\n")
        with pytest.raises(DataFormatError, match="mixed"):
            read_fimi(path)

    def test_garbage_items_rejected(self, tmp_path):
        path = tmp_path / "bad.fimi"
        path.write_text("1 two 3\n")
        with pytest.raises(DataFormatError, match="malformed"):
            read_fimi(path)

    def test_empty_transaction_rejected(self, tmp_path):
        path = tmp_path / "empty_tx.fimi"
        path.write_text("5:\n")
        with pytest.raises(DataFormatError, match="empty transaction"):
            read_fimi(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.fimi"
        path.write_text("\n\n")
        with pytest.raises(DataFormatError, match="no transactions"):
            read_fimi(path)


@pytest.fixture
def reports() -> ReportDatabase:
    drug_vocab = ItemVocabulary(["aspirin", "warfarin"])
    adr_vocab = ItemVocabulary(["bleeding", "nausea"])
    return ReportDatabase(
        [
            Report.create([0, 1], [0], 1),
            Report.create([0], [1], 2),
        ],
        drug_vocabulary=drug_vocab,
        adr_vocabulary=adr_vocab,
    )


class TestReportRoundtrip:
    def test_roundtrip_preserves_content_by_name(self, reports, tmp_path):
        path = tmp_path / "reports.tsv"
        assert write_reports(reports, path) == 2
        restored = read_reports(path)
        assert len(restored) == 2
        # Names survive; ids may be re-assigned in first-seen order.
        first = restored.reports[0]
        names = {restored.drug_name(d) for d in first.drugs}
        assert names == {"aspirin", "warfarin"}
        assert restored.adr_name(first.adrs[0]) == "bleeding"

    def test_counts_survive_roundtrip(self, reports, tmp_path):
        path = tmp_path / "reports.tsv"
        write_reports(reports, path)
        restored = read_reports(path)
        aspirin = restored.drug_vocabulary.id_of("aspirin")
        assert restored.count([aspirin]) == 2

    def test_times_preserved(self, reports, tmp_path):
        path = tmp_path / "reports.tsv"
        write_reports(reports, path)
        restored = read_reports(path)
        assert [r.time for r in restored] == [1, 2]


class TestReportErrors:
    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\taspirin\n")
        with pytest.raises(DataFormatError, match="3 tab-separated"):
            read_reports(path)

    def test_bad_timestamp(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("soon\taspirin\tnausea\n")
        with pytest.raises(DataFormatError, match="bad timestamp"):
            read_reports(path)

    def test_missing_side(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\taspirin\t\n")
        with pytest.raises(DataFormatError, match="needs drugs and ADRs"):
            read_reports(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="no reports"):
            read_reports(path)
