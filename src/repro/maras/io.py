"""Reading and writing ADR-report TSV files.

Format: ``time<TAB>drug;drug<TAB>adr;adr`` with free-form names — the
closest simple analogue of a FAERS extract.  Vocabularies are built on
read (ids assigned in first-seen order), so a deployment can swap the
synthetic FAERS generator for real extracts without touching anything
downstream.

This lives in the ``maras`` layer (not ``data``) because the record
types it serializes — :class:`~repro.maras.reports.Report` and
:class:`~repro.maras.reports.ReportDatabase` — are MARAS domain
objects; the generic ``data`` layer must not import upward (R002).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.common.errors import DataFormatError
from repro.data.items import ItemVocabulary
from repro.maras.reports import Report, ReportDatabase

PathLike = Union[str, Path]


def write_reports(database: ReportDatabase, path: PathLike) -> int:
    """Write ADR reports as ``time<TAB>drugs<TAB>adrs`` (names, ``;``-joined)."""
    lines: List[str] = []
    for report in database:
        drugs = ";".join(database.drug_name(d) for d in report.drugs)
        adrs = ";".join(database.adr_name(a) for a in report.adrs)
        lines.append(f"{report.time}\t{drugs}\t{adrs}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")
    return len(lines)


def read_reports(path: PathLike) -> ReportDatabase:
    """Read a report TSV back, rebuilding drug/ADR vocabularies."""
    text = Path(path).read_text("utf-8")
    drug_vocabulary = ItemVocabulary()
    adr_vocabulary = ItemVocabulary()
    reports: List[Report] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataFormatError(
                f"{path}:{line_number}: expected 3 tab-separated fields, "
                f"got {len(fields)}"
            )
        time_text, drugs_text, adrs_text = fields
        try:
            time = int(time_text)
        except ValueError:
            raise DataFormatError(
                f"{path}:{line_number}: bad timestamp {time_text!r}"
            ) from None
        drug_names = [name for name in drugs_text.split(";") if name]
        adr_names = [name for name in adrs_text.split(";") if name]
        if not drug_names or not adr_names:
            raise DataFormatError(
                f"{path}:{line_number}: a report needs drugs and ADRs"
            )
        reports.append(
            Report.create(
                (drug_vocabulary.encode(name) for name in drug_names),
                (adr_vocabulary.encode(name) for name in adr_names),
                time,
            )
        )
    if not reports:
        raise DataFormatError(f"{path}: no reports found")
    return ReportDatabase(
        reports,
        drug_vocabulary=drug_vocabulary,
        adr_vocabulary=adr_vocabulary,
    )
