"""TARA serving benchmark: one workload, one seed, one JSON result line.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload {hot,explore,ingest} \\
        --seed N --seconds S --trace {0,1}

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``.  See ``perfbench/LAYERS.md`` for the workloads, the
metrics and the layer map.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; "
            "run it from the root of a repository checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tarabench.cli import main

    sys.exit(main())
