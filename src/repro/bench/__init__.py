"""The perf harnesses behind ``repro bench`` and ``repro bench-persist``.

Two harnesses share one workload registry (:mod:`repro.bench.workloads`):

* :mod:`repro.bench.offline` builds the fixed dataset × miner matrix
  and emits ``BENCH_offline.json`` (``repro-bench-offline/2``),
  verifying that every miner builds a bit-identical knowledge base and
  recording the Figure 9 per-phase split;
* :mod:`repro.bench.persist` compares the eager v1 loader against the
  lazy v2 container (child process per loader, so peak RSS is
  attributable) and emits ``BENCH_persist.json``
  (``repro-bench-persist/1``), verifying answer fingerprints across
  loaders and gating v2 peak RSS strictly below v1 at 10x scale.

The served paths (HTTP request → snapshot pin → cache tiers → explorer
→ encode → socket, and reads under concurrent appends) are measured by
the repository benchmark in ``perfbench/`` (see ``BENCHMARK.json``).
"""

from repro.bench.offline import SCHEMA, add_bench_arguments, run_bench
from repro.bench.persist import (
    SCHEMA as PERSIST_SCHEMA,
    add_bench_persist_arguments,
    run_bench_persist,
)

__all__ = [
    "PERSIST_SCHEMA",
    "SCHEMA",
    "add_bench_arguments",
    "add_bench_persist_arguments",
    "run_bench",
    "run_bench_persist",
]
