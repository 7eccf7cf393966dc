"""Record the digests of generated inputs that every run checks.

Run from the repository root after a deliberate change to the inputs::

    python3 perfbench/record_digests.py

It rewrites ``perfbench/tarabench/digests.json``: the digest of the
transaction windows (the same for every seed), and for each pinned seed
the digest of every workload's request bytes at the ``run_seconds`` of
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seeds whose request digests are pinned.
PINNED_SEEDS = range(100)

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tarabench import inputs
    from tarabench.cli import DIGESTS, WORKLOADS

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    windows = inputs.make_windows()
    pinned = {
        "seconds": seconds,
        "windows": inputs.windows_digest(windows),
        "requests": {
            str(seed): {
                workload: inputs.requests_digest(
                    inputs.inputs_for(workload, seed, seconds, windows)
                )
                for workload in WORKLOADS
            }
            for seed in PINNED_SEEDS
        },
    }
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
