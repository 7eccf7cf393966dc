"""The offline job of the static workloads, run as a child process.

Reads the static windows written by the benchmark, builds the knowledge
base, saves it as a v2 container and prints one JSON line: the build's
``PhaseTimer`` breakdown, the save time and the file size.  It runs in
its own process, as ``repro build`` does, so the serving process never
holds the eager knowledge base.

Usage: ``python -m tarabench.offline_job WINDOWS_JSON KB_PATH``
"""

from __future__ import annotations

import json
import sys
import time

from repro.core.builder import GenerationConfig, build_knowledge_base
from repro.core.persistence import save_knowledge_base
from repro.data import WindowedDatabase
from repro.data.database import TransactionDatabase
from repro.data.transactions import Transaction

from tarabench.inputs import CONF_G, SUPP_G


def main(windows_path: str, kb_path: str) -> None:
    with open(windows_path, encoding="utf-8") as handle:
        windows = json.load(handle)
    database = TransactionDatabase(
        Transaction.create(items, time)
        for window in windows
        for time, items in window
    )
    knowledge_base = build_knowledge_base(
        WindowedDatabase.partition_by_count(database, len(windows)),
        GenerationConfig(
            min_support=SUPP_G, min_confidence=CONF_G, build_item_index=True
        ),
    )
    started = time.perf_counter()
    file_bytes = save_knowledge_base(knowledge_base, kb_path)
    save_seconds = time.perf_counter() - started
    print(
        json.dumps(
            {
                "phases": knowledge_base.timer.breakdown(),
                "save_s": save_seconds,
                "file_bytes": file_bytes,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
