"""Reading and writing transaction databases in FIMI format.

FIMI is the format of the Frequent Itemset Mining Implementations
repository that distributes the paper's real datasets (``retail``,
``webdocs``): one transaction per line, items as whitespace-separated
non-negative integers.  Plain FIMI has no timestamps; the *timed*
variant used here prefixes each line with ``<time>:``.  Reading
auto-detects which variant a file uses.

ADR-report TSV I/O lives in :mod:`repro.maras.io` — its record types
are MARAS domain objects, and the data layer may not import upward
(R002).

These let a deployment swap the synthetic generators for the real files
without touching anything downstream.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.common.errors import DataFormatError
from repro.data.database import TransactionDatabase
from repro.data.transactions import Transaction

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# FIMI transactions
# ----------------------------------------------------------------------
def write_fimi(
    database: TransactionDatabase,
    path: PathLike,
    *,
    include_times: bool = True,
) -> int:
    """Write *database* in (timed) FIMI format; returns lines written.

    With ``include_times=False`` the output is plain FIMI and the
    timestamps are lost (reading it back assigns the dense clock).
    """
    lines: List[str] = []
    for transaction in database:
        items = " ".join(str(item) for item in transaction.items)
        if include_times:
            lines.append(f"{transaction.time}: {items}")
        else:
            lines.append(items)
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")
    return len(lines)


def read_fimi(path: PathLike) -> TransactionDatabase:
    """Read a plain or timed FIMI file into a transaction database.

    Blank lines are skipped.  Timed and plain lines must not be mixed;
    malformed lines raise :class:`DataFormatError` with the line number.
    """
    text = Path(path).read_text("utf-8")
    transactions: List[Transaction] = []
    timed: bool | None = None
    dense_clock = 0
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        has_time = ":" in line
        if timed is None:
            timed = has_time
        elif timed != has_time:
            raise DataFormatError(
                f"{path}:{line_number}: mixed timed and plain FIMI lines"
            )
        try:
            if has_time:
                time_text, _, items_text = line.partition(":")
                time = int(time_text.strip())
            else:
                time = dense_clock
                items_text = line
            items = [int(token) for token in items_text.split()]
        except ValueError as error:
            raise DataFormatError(
                f"{path}:{line_number}: malformed FIMI line: {error}"
            ) from None
        if not items:
            raise DataFormatError(f"{path}:{line_number}: empty transaction")
        transactions.append(Transaction.create(items, time))
        dense_clock += 1
    if not transactions:
        raise DataFormatError(f"{path}: no transactions found")
    return TransactionDatabase(transactions)

