"""The performance harnesses behind ``repro bench`` and ``repro bench-online``.

Two sibling harnesses share one workload vocabulary
(:mod:`repro.bench.workloads`):

* :mod:`repro.bench.offline` builds the fixed dataset × miner matrix
  and emits ``BENCH_offline.json`` (``repro-bench-offline/2``);
* :mod:`repro.bench.online` drives the serving layer's region-keyed
  cache through the E6/E7 query sweeps and emits ``BENCH_online.json``
  (``repro-bench-online/1``), verifying cached answers against uncached
  recomputation before writing anything;
* :mod:`repro.bench.serve` drives the asyncio network tier with
  concurrent clients and emits ``BENCH_serve.json``
  (``repro-bench-serve/1``), verifying served answers against direct
  execution and asserting the coalescer actually collapsed duplicates;
* :mod:`repro.bench.ingest` drives concurrent query clients while a
  writer appends windows through ``/v1/admin/append`` and emits
  ``BENCH_ingest.json`` (``repro-bench-ingest/1``), verifying every
  answer against a serial rebuild at the answering snapshot's window
  count and gating p99-under-ingest at twice the no-ingest baseline;
* :mod:`repro.bench.persist` compares the eager v1 loader against the
  lazy v2 container (child process per loader, so peak RSS is
  attributable) and emits ``BENCH_persist.json``
  (``repro-bench-persist/1``), verifying answer fingerprints across
  loaders and gating v2 peak RSS strictly below v1 at 10x scale.

For backward compatibility this package re-exports the offline
harness's public surface under its historical ``repro.bench`` names
(``SCHEMA``, ``_WORKLOADS``, ``run_bench``, ...).
"""

from repro.bench.ingest import (
    DEFAULT_OUT as INGEST_DEFAULT_OUT,
    SCHEMA as INGEST_SCHEMA,
    add_bench_ingest_arguments,
    run_bench_ingest,
    run_ingest_matrix,
)
from repro.bench.offline import (
    DEFAULT_OUT,
    SCHEMA,
    add_bench_arguments,
    knowledge_base_fingerprint,
    run_bench,
    run_matrix,
)
from repro.bench.online import (
    DEFAULT_OUT as ONLINE_DEFAULT_OUT,
    SCHEMA as ONLINE_SCHEMA,
    add_bench_online_arguments,
    run_bench_online,
    run_online_matrix,
)
from repro.bench.persist import (
    DEFAULT_OUT as PERSIST_DEFAULT_OUT,
    SCHEMA as PERSIST_SCHEMA,
    add_bench_persist_arguments,
    run_bench_persist,
    run_persist_matrix,
)
from repro.bench.serve import (
    DEFAULT_OUT as SERVE_DEFAULT_OUT,
    SCHEMA as SERVE_SCHEMA,
    add_bench_serve_arguments,
    run_bench_serve,
    run_serve_matrix,
)
from repro.bench.workloads import (
    FULL_DATASETS,
    FULL_MINERS,
    ONLINE_CONFIDENCE_SWEEP,
    ONLINE_FIXED_CONFIDENCE,
    ONLINE_SUPPORT_SWEEP,
    QUICK_DATASETS,
    QUICK_MINERS,
    _WORKLOADS,
    online_settings,
    select_datasets,
)

__all__ = [
    "DEFAULT_OUT",
    "FULL_DATASETS",
    "FULL_MINERS",
    "INGEST_DEFAULT_OUT",
    "INGEST_SCHEMA",
    "ONLINE_CONFIDENCE_SWEEP",
    "ONLINE_DEFAULT_OUT",
    "ONLINE_FIXED_CONFIDENCE",
    "ONLINE_SCHEMA",
    "ONLINE_SUPPORT_SWEEP",
    "PERSIST_DEFAULT_OUT",
    "PERSIST_SCHEMA",
    "QUICK_DATASETS",
    "QUICK_MINERS",
    "SCHEMA",
    "SERVE_DEFAULT_OUT",
    "SERVE_SCHEMA",
    "add_bench_arguments",
    "add_bench_ingest_arguments",
    "add_bench_online_arguments",
    "add_bench_persist_arguments",
    "add_bench_serve_arguments",
    "knowledge_base_fingerprint",
    "online_settings",
    "run_bench",
    "run_bench_ingest",
    "run_bench_online",
    "run_bench_persist",
    "run_bench_serve",
    "run_ingest_matrix",
    "run_matrix",
    "run_online_matrix",
    "run_persist_matrix",
    "run_serve_matrix",
    "select_datasets",
]
