"""Command-line interface to the reproduction.

Covers the full workflow without writing Python:

``repro generate``
    Emit a synthetic dataset (quest / retail / webdocs as timed-FIMI
    transactions, faers as an ADR-report TSV).
``repro build``
    Run the offline phase over a FIMI file and save the knowledge base
    as a v2 segmented container.
``repro convert``
    Rewrite a saved knowledge base (v1 JSON or v2) as a v2 segmented
    container.
``repro kb-info``
    Inspect a saved knowledge base without materializing it: format
    version, shard layout, rule/window counts, on-disk vs decoded
    sizes.
``repro mine``
    Traditional mining request against a saved knowledge base.
``repro recommend``
    Q3 parameter recommendation (the enclosing stable region).
``repro compare``
    Q2 ruleset comparison between two settings.
``repro maras``
    Rank MDAR signals from an ADR-report TSV.
``repro lint``
    Run the AST-based invariant checker over the source tree.
``repro bench``
    Offline-phase perf harness: build the fixed dataset x miner matrix
    and emit ``BENCH_offline.json``.
``repro serve``
    Serve a saved knowledge base over HTTP (asyncio network tier with
    request coalescing; see docs/serving.md).  The served paths are
    measured by the repository benchmark in ``perfbench/``.
``repro bench-persist``
    Storage harness: eager v1 loader vs lazy v2 container under a
    memory budget, peak RSS measured per child process; emits
    ``BENCH_persist.json``.

Commands that read a saved knowledge base (``mine``, ``recommend``,
``compare``, ``serve``, ``convert``) accept ``--memory-budget BYTES``
(suffixes ``k``/``M``/``G``) to bound the decoded-series cache of a
lazily loaded v2 container.

Query thresholds are spelled ``--minsupp`` / ``--minconf`` uniformly
across ``mine``, ``recommend``, and ``compare`` (``compare`` adds
``--second-minsupp`` / ``--second-minconf``); all are required.

Every subcommand prints plain text to stdout; exit code 0 on success,
2 on argument errors (argparse convention), 1 on domain errors with the
message on stderr.
"""

from __future__ import annotations

import argparse
import base64
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro._version import __version__
from repro.analysis.cli import add_lint_arguments, run_lint
from repro.bench import (
    add_bench_arguments,
    add_bench_persist_arguments,
    run_bench,
    run_bench_persist,
)
from repro.common.errors import DataFormatError, ReproError
from repro.core import (
    CompareQuery,
    GenerationConfig,
    LazyTaraKnowledgeBase,
    MatchMode,
    ParameterSetting,
    RecommendQuery,
    TaraExplorer,
    build_knowledge_base,
    load_knowledge_base,
    save_knowledge_base,
)
from repro.core.persistence import DEFAULT_FORMAT_VERSION, FORMAT_VERSION
from repro.core.storage.format import DEFAULT_SHARD_SIZE, MAGIC
from repro.core.storage.lru import DECODED_ENTRY_COST, SERIES_BASE_COST
from repro.core.storage.reader import ShardedSeriesSource
from repro.data import WindowedDatabase
from repro.data.io import read_fimi, write_fimi
from repro.maras.io import read_reports, write_reports
from repro.datagen import (
    QuestParameters,
    RetailParameters,
    WebdocsParameters,
    generate_faers,
    generate_quest,
    generate_retail,
    generate_webdocs,
    FaersParameters,
)
from repro.maras import MarasAnalyzer, MarasConfig
from repro.serve import (
    DEFAULT_DRAIN_TIMEOUT,
    DEFAULT_MAX_ENTRIES,
    DEFAULT_POOL_SIZE,
    DEFAULT_PORT,
    DEFAULT_RESPONSE_CACHE_BYTES,
    ServeConfig,
    resolve_pool_size,
    run_server,
)


def _parse_memory_budget(text: str) -> int:
    """Parse a byte count with an optional ``k``/``M``/``G`` suffix."""
    raw = text.strip()
    multiplier = 1
    if raw and raw[-1] in "kMG":
        multiplier = {"k": 1024, "M": 1024 ** 2, "G": 1024 ** 3}[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid memory budget {text!r}: expected an integer byte "
            f"count with an optional k/M/G suffix (e.g. 64M)"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"memory budget must be positive, got {text!r}"
        )
    return value * multiplier


def _add_memory_budget_argument(parser: argparse.ArgumentParser) -> None:
    """Install ``--memory-budget`` on a KB-loading subcommand."""
    parser.add_argument(
        "--memory-budget", type=_parse_memory_budget, default=None,
        metavar="BYTES",
        help="decoded-series cache budget for lazily loaded v2 "
             "containers (suffixes k/M/G; default: unbounded)",
    )


def _add_threshold_arguments(
    parser: argparse.ArgumentParser, prefix: str = "", label: str = "query"
) -> None:
    """Install one setting's required ``--[prefix]minsupp/minconf`` flags."""
    parser.add_argument(
        f"--{prefix}minsupp", type=float, required=True,
        help=f"{label} minimum support",
    )
    parser.add_argument(
        f"--{prefix}minconf", type=float, required=True,
        help=f"{label} minimum confidence",
    )


def build_parser() -> argparse.ArgumentParser:
    """The full argparse tree (exposed for --help testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Interactive temporal association analytics (EDBT'16 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="emit a synthetic dataset"
    )
    generate.add_argument(
        "dataset", choices=("quest", "retail", "webdocs", "faers")
    )
    generate.add_argument("--out", required=True, help="output file path")
    generate.add_argument("--size", type=int, default=5000,
                          help="transactions / documents / reports to generate")
    generate.add_argument("--items", type=int, default=500,
                          help="item universe size (transaction datasets)")
    generate.add_argument("--seed", type=int, default=1)

    build = commands.add_parser(
        "build", help="run the offline phase over a FIMI file"
    )
    build.add_argument("--input", required=True, help="timed or plain FIMI file")
    build.add_argument("--out", required=True, help="knowledge-base output path")
    build.add_argument("--batches", type=int, default=5,
                       help="number of equal count-based windows")
    build.add_argument("--min-support", type=float, required=True)
    build.add_argument("--min-confidence", type=float, required=True)
    build.add_argument("--miner", default="vertical",
                       choices=("apriori", "eclat", "fpgrowth", "hmine",
                                "vertical"))
    build.add_argument("--item-index", action="store_true",
                       help="build the TARA-S per-region item index")
    build.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE,
                       help=f"rules per v2 shard (default: {DEFAULT_SHARD_SIZE})")

    convert = commands.add_parser(
        "convert", help="rewrite a saved knowledge base as a v2 container"
    )
    convert.add_argument("src", help="existing knowledge-base path (v1 or v2)")
    convert.add_argument("dst", help="output path")
    convert.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE,
                         help=f"rules per v2 shard (default: {DEFAULT_SHARD_SIZE})")
    _add_memory_budget_argument(convert)

    kb_info = commands.add_parser(
        "kb-info", help="inspect a saved knowledge base without loading it"
    )
    kb_info.add_argument("kb", help="knowledge-base path (v1 or v2)")

    mine = commands.add_parser("mine", help="mine a saved knowledge base")
    mine.add_argument("--kb", required=True)
    _add_threshold_arguments(mine)
    mine.add_argument("--window", type=int, default=None,
                      help="basic window index (default: latest)")
    mine.add_argument("--top", type=int, default=20,
                      help="print at most this many rules")
    _add_memory_budget_argument(mine)

    recommend = commands.add_parser(
        "recommend", help="Q3: stable region around a setting"
    )
    recommend.add_argument("--kb", required=True)
    _add_threshold_arguments(recommend)
    recommend.add_argument("--window", type=int, default=None)
    _add_memory_budget_argument(recommend)

    compare = commands.add_parser(
        "compare", help="Q2: difference of two settings"
    )
    compare.add_argument("--kb", required=True)
    _add_memory_budget_argument(compare)
    _add_threshold_arguments(compare, label="first setting's")
    _add_threshold_arguments(compare, "second-", "second setting's")
    compare.add_argument("--mode", choices=("single", "exact"), default="single")

    maras = commands.add_parser(
        "maras", help="rank MDAR signals from an ADR-report TSV"
    )
    maras.add_argument("--reports", required=True)
    maras.add_argument("--min-count", type=int, default=5)
    maras.add_argument("--top", type=int, default=10)
    maras.add_argument("--theta", type=float, default=0.75)

    lint = commands.add_parser(
        "lint", help="run the AST-based invariant checker (see docs/static_analysis.md)"
    )
    add_lint_arguments(lint)

    bench = commands.add_parser(
        "bench",
        help="offline-build perf harness -> BENCH_offline.json (see docs/performance.md)",
    )
    add_bench_arguments(bench)

    serve = commands.add_parser(
        "serve",
        help="serve a saved knowledge base over HTTP (see docs/serving.md)",
    )
    serve.add_argument("--kb", required=True, help="saved knowledge-base path")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"bind port (default: {DEFAULT_PORT}; 0 for ephemeral)")
    serve.add_argument("--pool-size", default=str(DEFAULT_POOL_SIZE),
                       help="query worker threads: a count or 'auto' "
                            "(one per CPU; "
                            f"default: {DEFAULT_POOL_SIZE})")
    serve.add_argument("--max-entries", type=int, default=DEFAULT_MAX_ENTRIES,
                       help=f"region-keyed cache capacity (default: {DEFAULT_MAX_ENTRIES})")
    serve.add_argument("--response-cache", type=_parse_memory_budget,
                       default=DEFAULT_RESPONSE_CACHE_BYTES, metavar="BYTES",
                       help="encoded-response byte-cache budget "
                            "(suffixes k/M/G; default: 64M)")
    serve.add_argument("--drain-timeout", type=float, default=DEFAULT_DRAIN_TIMEOUT,
                       help="graceful-shutdown drain seconds "
                            f"(default: {DEFAULT_DRAIN_TIMEOUT:g})")
    _add_memory_budget_argument(serve)

    bench_persist = commands.add_parser(
        "bench-persist",
        help="storage harness: eager v1 vs lazy v2 loader -> "
             "BENCH_persist.json (see docs/storage.md)",
    )
    add_bench_persist_arguments(bench_persist)
    return parser


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "quest":
        database = generate_quest(
            QuestParameters(
                transaction_count=args.size,
                avg_transaction_size=10.0,
                item_count=args.items,
                seed=args.seed,
            )
        )
        count = write_fimi(database, args.out)
    elif args.dataset == "retail":
        database, _ = generate_retail(
            RetailParameters(
                transaction_count=args.size, item_count=args.items, seed=args.seed
            )
        )
        count = write_fimi(database, args.out)
    elif args.dataset == "webdocs":
        database = generate_webdocs(
            WebdocsParameters(
                document_count=args.size,
                vocabulary_size=max(args.items, 1000),
                seed=args.seed,
            )
        )
        count = write_fimi(database, args.out)
    else:  # faers
        reports, reference, _ = generate_faers(
            FaersParameters(report_count=args.size, seed=args.seed)
        )
        count = write_reports(reports, args.out)
        print(f"planted interactions: {len(reference)}")
    print(f"wrote {count} records to {args.out}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    database = read_fimi(args.input)
    windows = WindowedDatabase.partition_by_count(database, args.batches)
    config = GenerationConfig(
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        miner=args.miner,
        build_item_index=args.item_index,
    )
    knowledge_base = build_knowledge_base(windows, config)
    written = save_knowledge_base(
        knowledge_base, args.out, shard_size=args.shard_size
    )
    print(
        f"built {knowledge_base.window_count} windows, "
        f"{len(knowledge_base.catalog)} rules, "
        f"{knowledge_base.archive.entry_count()} archive entries; "
        f"saved {written} bytes to {args.out} "
        f"(format v{DEFAULT_FORMAT_VERSION})"
    )
    print(knowledge_base.timer.report("offline phase"))
    return 0


def _sniff_format(path: Path) -> int:
    """Report a saved KB's format version from its leading bytes."""
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC))
    except OSError as error:
        raise DataFormatError(f"cannot read {path}: {error}") from error
    return DEFAULT_FORMAT_VERSION if magic == MAGIC else FORMAT_VERSION


def _cmd_convert(args: argparse.Namespace) -> int:
    src_format = _sniff_format(Path(args.src))
    knowledge_base = load_knowledge_base(
        args.src, memory_budget=args.memory_budget
    )
    try:
        written = save_knowledge_base(
            knowledge_base, args.dst, shard_size=args.shard_size
        )
    finally:
        if isinstance(knowledge_base, LazyTaraKnowledgeBase):
            knowledge_base.close()
    src_bytes = Path(args.src).stat().st_size
    print(
        f"converted {args.src} (format v{src_format}, {src_bytes} bytes) "
        f"-> {args.dst} (format v{DEFAULT_FORMAT_VERSION}, {written} bytes)"
    )
    return 0


def _cmd_kb_info(args: argparse.Namespace) -> int:
    path = Path(args.kb)
    if _sniff_format(path) == DEFAULT_FORMAT_VERSION:
        return _kb_info_v2(path)
    return _kb_info_v1(path)


def _kb_info_v2(path: Path) -> int:
    file_bytes = path.stat().st_size
    with ShardedSeriesSource(path) as source:
        counts = source.meta.get("counts", {})
        rules = len(source)
        windows = source.window_count
        entries = int(counts.get("entries", 0))
        encoded = int(counts.get("encoded_bytes", 0))
        shards = source.counters()["shard_count"]
        shard_size = source.meta.get("shard_size", "?")
    decoded = rules * SERIES_BASE_COST + entries * DECODED_ENTRY_COST
    print(f"{path}: TARA knowledge base, format v2 (segmented container)")
    print(f"  file size        {file_bytes:>14,} bytes")
    print(f"  windows          {windows:>14,}")
    print(f"  rules            {rules:>14,}")
    print(f"  archive entries  {entries:>14,}")
    print(f"  shards           {shards:>14,}  ({shard_size} rules/shard)")
    print(f"  series on disk   {encoded:>14,} bytes (raw varint)")
    print(f"  decoded estimate {decoded:>14,} bytes if fully materialized")
    print("  loads lazily; bound resident decode with --memory-budget")
    return 0


def _kb_info_v1(path: Path) -> int:
    file_bytes = path.stat().st_size
    try:
        payload = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError) as error:
        raise DataFormatError(
            f"{path} is neither a v2 container nor readable v1 JSON: {error}"
        ) from error
    version = payload.get("format_version", "?")
    archive = payload.get("archive", {})
    rules = len(payload.get("catalog", []))
    windows = len(payload.get("window_sizes", []))
    entries = sum(len(ids) for ids in payload.get("rules_in_window", []))
    encoded_b85 = sum(len(blob) for blob in archive.values())
    encoded = sum(
        len(base64.b85decode(blob)) for blob in archive.values()
    )
    decoded = rules * SERIES_BASE_COST + entries * DECODED_ENTRY_COST
    print(f"{path}: TARA knowledge base, format v{version} "
          f"(eager JSON envelope)")
    print(f"  file size        {file_bytes:>14,} bytes")
    print(f"  windows          {windows:>14,}")
    print(f"  rules            {rules:>14,}")
    print(f"  archive entries  {entries:>14,}")
    print(f"  series on disk   {encoded_b85:>14,} bytes (base85; "
          f"{encoded:,} raw)")
    print(f"  decoded estimate {decoded:>14,} bytes, all resident on load")
    print(f"  migrate to v2 with: repro convert {path} {path}.tara2")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    knowledge_base = load_knowledge_base(
        args.kb, memory_budget=args.memory_budget
    )
    explorer = TaraExplorer(knowledge_base)
    from repro.data import PeriodSpec

    window = (
        args.window if args.window is not None else knowledge_base.window_count - 1
    )
    setting = ParameterSetting(args.minsupp, args.minconf)
    mined = explorer.mine(setting, PeriodSpec.single(window))[window]
    mined.sort(key=lambda rule: (-rule.confidence, -rule.support))
    print(f"{len(mined)} rules in window {window} at "
          f"(supp>={setting.min_support}, conf>={setting.min_confidence})")
    for rule in mined[: args.top]:
        print(
            f"  {rule.rule.format():<40} supp={rule.support:.4f} "
            f"conf={rule.confidence:.3f}"
        )
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    knowledge_base = load_knowledge_base(
        args.kb, memory_budget=args.memory_budget
    )
    explorer = TaraExplorer(knowledge_base)
    setting = ParameterSetting(args.minsupp, args.minconf)
    recommendation = explorer.execute(
        RecommendQuery(setting=setting, window=args.window)
    )
    region = recommendation.region
    if region.is_empty:
        print("no rules at or above this setting in the window")
        return 0
    print(
        f"window {recommendation.window}: same {region.ruleset_size} rules for any "
        f"supp in ({float(region.support_floor):.5f}, "
        f"{region.cut.support_float:.5f}] and conf in "
        f"({float(region.confidence_floor):.5f}, "
        f"{region.cut.confidence_float:.5f}]"
    )
    for direction, neighbor in recommendation.neighbors.items():
        delta = neighbor.ruleset_size - region.ruleset_size
        print(f"  {direction:<18} -> {neighbor.ruleset_size} rules ({delta:+d})")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    first = ParameterSetting(args.minsupp, args.minconf)
    second = ParameterSetting(args.second_minsupp, args.second_minconf)
    knowledge_base = load_knowledge_base(
        args.kb, memory_budget=args.memory_budget
    )
    explorer = TaraExplorer(knowledge_base)
    mode = MatchMode.EXACT if args.mode == "exact" else MatchMode.SINGLE
    result = explorer.execute(
        CompareQuery(first=first, second=second, mode=mode)
    )
    print(
        f"{len(result.only_first)} rules only under the first setting, "
        f"{len(result.only_second)} only under the second "
        f"({args.mode} match over {len(result.per_window)} windows)"
    )
    for diff in result.per_window:
        print(
            f"  window {diff.window}: +{len(diff.only_first)} "
            f"-{len(diff.only_second)} ={len(diff.common)}"
        )
    return 0


def _cmd_maras(args: argparse.Namespace) -> int:
    database = read_reports(args.reports)
    analyzer = MarasAnalyzer(
        database, MarasConfig(min_count=args.min_count, theta=args.theta)
    )
    signals = analyzer.signals(top_k=args.top)
    print(
        f"{len(database)} reports, {database.drug_count} drugs, "
        f"{database.adr_count} ADRs -> top {len(signals)} signals:"
    )
    for rank, signal in enumerate(signals, start=1):
        print(f"  #{rank} {signal.describe(database)}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    knowledge_base = load_knowledge_base(
        args.kb, memory_budget=args.memory_budget
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        pool_size=resolve_pool_size(args.pool_size),
        max_entries=args.max_entries,
        drain_timeout=args.drain_timeout,
        response_cache_bytes=args.response_cache,
    )
    print(
        f"serving {knowledge_base.window_count} windows, "
        f"{len(knowledge_base.catalog)} rules from {args.kb}"
    )

    def on_ready(host: str, port: int) -> None:
        print(f"listening on http://{host}:{port} (Ctrl-C to drain and stop)")

    run_server(knowledge_base, config, on_ready=on_ready)
    print("drained; bye")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "build": _cmd_build,
    "convert": _cmd_convert,
    "kb-info": _cmd_kb_info,
    "mine": _cmd_mine,
    "recommend": _cmd_recommend,
    "compare": _cmd_compare,
    "maras": _cmd_maras,
    "lint": run_lint,
    "bench": run_bench,
    "serve": _cmd_serve,
    "bench-persist": run_bench_persist,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
