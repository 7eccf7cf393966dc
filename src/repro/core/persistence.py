"""Saving and loading TARA knowledge bases.

The offline phase is the expensive part of TARA; a deployment builds
the knowledge base once per batch and serves analysts from it for the
rest of the window's lifetime.  This module persists a built
:class:`~repro.core.builder.TaraKnowledgeBase` and restores it with
answers byte-identical to the original — verified by the test suite
and gated by ``repro bench-persist``.

Two formats:

* **v2 (default)** — the segmented binary container of
  :mod:`repro.core.storage`: meta JSON + shard/window directories +
  raw varint series blocks, written by
  :func:`repro.core.storage.writer.write_container`.  Loading returns a
  :class:`~repro.core.lazykb.LazyTaraKnowledgeBase` that ``mmap``\\ s
  the file and materializes per window / per rule on first touch under
  an optional ``memory_budget`` — RSS stays bounded however large the
  KB is.
* **v1 (legacy)** — the original single JSON envelope with
  base85-encoded blobs, eagerly decoded and fully rebuilt on load.
  Still loadable forever, and ``repro convert`` migrates old files to
  v2.  No command writes it; the library writer stays because
  ``repro bench-persist`` uses the eager v1 loader as its answer
  reference.

No pickle anywhere: both formats are inspectable and safe to load.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.common.errors import DataFormatError
from repro.common.gcscope import paused_gc
from repro.common.timing import PhaseTimer
from repro.core.archive import TarArchive, _decode_series
from repro.core.builder import GenerationConfig, TaraKnowledgeBase
from repro.core.lazykb import LazyTaraKnowledgeBase
from repro.core.locations import group_by_counts
from repro.core.regions import WindowSlice
from repro.core.storage.format import (
    CONTAINER_FORMAT_VERSION,
    DEFAULT_SHARD_SIZE,
    MAGIC,
)
from repro.core.storage.reader import ShardedSeriesSource
from repro.core.storage.writer import WindowEntry, write_container
from repro.data.periods import PeriodSpec
from repro.mining.rules import Rule, RuleCatalog, ScoredRule

#: The legacy eager JSON envelope.
FORMAT_VERSION = 1
#: The segmented binary container — the default write format.
DEFAULT_FORMAT_VERSION = CONTAINER_FORMAT_VERSION


def save_knowledge_base(
    knowledge_base: TaraKnowledgeBase,
    path: Union[str, Path],
    *,
    format_version: int = DEFAULT_FORMAT_VERSION,
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> int:
    """Write *knowledge_base* to *path*; returns bytes written.

    The archive is sealed as a side effect (sealing is idempotent and
    required so every series has its canonical encoding).
    *shard_size* only applies to v2.
    """
    if format_version == CONTAINER_FORMAT_VERSION:
        return _save_v2(knowledge_base, Path(path), shard_size)
    if format_version == FORMAT_VERSION:
        return _save_v1(knowledge_base, Path(path))
    raise DataFormatError(
        f"unknown knowledge-base format version {format_version!r} "
        f"(known: {FORMAT_VERSION}, {CONTAINER_FORMAT_VERSION})"
    )


def load_knowledge_base(
    path: Union[str, Path],
    *,
    memory_budget: Optional[int] = None,
) -> TaraKnowledgeBase:
    """Restore a knowledge base written by :func:`save_knowledge_base`.

    The format is sniffed from the file's first bytes.  A v2 container
    loads lazily (see the module docstring); *memory_budget* bounds its
    resident decoded series in bytes.  A v1 envelope loads eagerly and
    ignores *memory_budget* (everything is resident by construction).
    The build timer is not persisted (it described the original
    machine's offline run).
    """
    file_path = Path(path)
    try:
        with open(file_path, "rb") as handle:
            head = handle.read(len(MAGIC))
    except OSError as error:
        raise DataFormatError(
            f"cannot read knowledge base from {file_path}: {error}"
        ) from error
    if head == MAGIC:
        return _load_v2(file_path, memory_budget)
    return _load_v1(file_path)


# ----------------------------------------------------------------------
# format v2: segmented binary container, lazy load
# ----------------------------------------------------------------------
def _save_v2(
    knowledge_base: TaraKnowledgeBase, path: Path, shard_size: int
) -> int:
    knowledge_base.archive.seal()
    archive = knowledge_base.archive
    rule_ids = sorted(archive.rule_ids())

    per_window: List[List[WindowEntry]] = [
        [] for _ in range(archive.window_count)
    ]
    encoded: List[Tuple[int, bytes]] = []
    entry_count = 0
    encoded_bytes = 0
    for rule_id in rule_ids:
        blob = archive.encoded_series(rule_id)
        encoded.append((rule_id, blob))
        encoded_bytes += len(blob)
        for window, rule_count, antecedent_count, consequent_count in (
            archive.series_entries(rule_id)
        ):
            per_window[window].append(
                (rule_id, rule_count, antecedent_count, consequent_count)
            )
            entry_count += 1
    # Iterating rules in ascending id keeps each window's rows sorted.

    meta = {
        "config": _config_payload(knowledge_base.config),
        "window_sizes": list(knowledge_base.window_sizes),
        "missing_count_bounds": [
            archive.missing_count_bound(w) for w in range(archive.window_count)
        ],
        "catalog": _catalog_payload(knowledge_base.catalog),
        "counts": {
            "rules": len(rule_ids),
            "windows": archive.window_count,
            "entries": entry_count,
            "encoded_bytes": encoded_bytes,
        },
    }
    summary = write_container(
        path,
        meta=meta,
        window_entries=per_window,
        series=encoded,
        shard_size=shard_size,
    )
    return summary["file_bytes"]


def _load_v2(
    path: Path, memory_budget: Optional[int]
) -> LazyTaraKnowledgeBase:
    source = ShardedSeriesSource(path, memory_budget)
    try:
        meta = source.meta
        config = _config_from(meta, path)
        catalog = _catalog_from(meta, path)
        window_sizes = meta.get("window_sizes")
        bounds = meta.get("missing_count_bounds")
        if not isinstance(window_sizes, list) or not isinstance(bounds, list):
            raise DataFormatError(
                f"{path}: container meta is missing window bookkeeping"
            )
        if not (
            len(window_sizes) == len(bounds) == source.window_count
        ):
            raise DataFormatError(
                f"{path}: inconsistent window bookkeeping "
                f"({len(window_sizes)} sizes, {len(bounds)} bounds, "
                f"{source.window_count} window blocks)"
            )
    except Exception:
        source.close()
        raise
    return LazyTaraKnowledgeBase.from_source(
        source,
        config=config,
        catalog=catalog,
        window_sizes=window_sizes,
        missing_count_bounds=bounds,
    )


# ----------------------------------------------------------------------
# format v1: eager JSON envelope
# ----------------------------------------------------------------------
def _save_v1(knowledge_base: TaraKnowledgeBase, path: Path) -> int:
    knowledge_base.archive.seal()
    archive = knowledge_base.archive
    # candidate_rules reproduces the builder's per-window id lists for
    # eager and lazy knowledge bases alike (sorted unique archived ids).
    rules_in_window = [
        knowledge_base.candidate_rules(PeriodSpec([w]))
        for w in range(archive.window_count)
    ]
    payload = {
        "format_version": FORMAT_VERSION,
        "config": _config_payload(knowledge_base.config),
        "window_sizes": list(knowledge_base.window_sizes),
        "missing_count_bounds": [
            archive.missing_count_bound(w) for w in range(archive.window_count)
        ],
        "rules_in_window": rules_in_window,
        "catalog": _catalog_payload(knowledge_base.catalog),
        "archive": {
            str(rule_id): base64.b85encode(
                archive.encoded_series(rule_id)
            ).decode("ascii")
            for rule_id in archive.rule_ids()
        },
    }
    text = json.dumps(payload, separators=(",", ":"))
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def _load_v1(path: Path) -> TaraKnowledgeBase:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise DataFormatError(
            f"cannot read knowledge base from {path}: {error}"
        ) from error
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise DataFormatError(
            f"unsupported knowledge-base format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )

    config = _config_from(payload, path)
    catalog = _catalog_from(payload, path)

    window_sizes = list(payload["window_sizes"])
    bounds = list(payload["missing_count_bounds"])
    rules_in_window = [list(rule_ids) for rule_ids in payload["rules_in_window"]]
    if not (len(window_sizes) == len(bounds) == len(rules_in_window)):
        raise DataFormatError("inconsistent window bookkeeping in saved file")

    # Decode every rule's series once; group per window for the slices.
    series_by_rule = {}
    for rule_id_text, blob_text in payload["archive"].items():
        rule_id = int(rule_id_text)
        blob = base64.b85decode(blob_text.encode("ascii"))
        series_by_rule[rule_id] = _decode_series(blob)

    archive = TarArchive()
    per_window_scored: List[List[ScoredRule]] = [[] for _ in window_sizes]
    for rule_id, series in series_by_rule.items():
        rule = catalog.get(rule_id)
        for window, rule_count, antecedent_count, consequent_count in series:
            if not 0 <= window < len(window_sizes):
                raise DataFormatError(
                    f"rule {rule_id} references unknown window {window}"
                )
            n = window_sizes[window]
            per_window_scored[window].append(
                ScoredRule(
                    rule_id=rule_id,
                    rule=rule,
                    support=rule_count / n if n else 0.0,
                    confidence=(
                        rule_count / antecedent_count if antecedent_count else 0.0
                    ),
                    rule_count=rule_count,
                    antecedent_count=antecedent_count,
                    window_size=n,
                    consequent_count=consequent_count,
                )
            )

    knowledge_base = TaraKnowledgeBase(
        config=config, catalog=catalog, archive=archive, timer=PhaseTimer()
    )
    # Bulk rebuild: every allocation below is retained, so pause the
    # cyclic collector exactly as the builder does.
    with paused_gc():
        for window, (size, bound) in enumerate(zip(window_sizes, bounds)):
            archive.begin_window(size, bound)
            scored = sorted(per_window_scored[window], key=lambda s: s.rule_id)
            archive.record(window, scored)
            item_source = (
                {s.rule_id: s.rule.items for s in scored}
                if config.build_item_index
                else None
            )
            knowledge_base.slices.append(
                WindowSlice.from_count_groups(
                    window,
                    size,
                    group_by_counts(scored),
                    generation_setting=config.setting,
                    item_index_source=item_source,
                )
            )
            knowledge_base.rules_in_window.append(rules_in_window[window])
            knowledge_base.window_sizes.append(size)
    archive.seal()
    return knowledge_base


# ----------------------------------------------------------------------
# shared payload pieces
# ----------------------------------------------------------------------
def _config_payload(config: GenerationConfig) -> Dict[str, Any]:
    return {
        "min_support": config.min_support,
        "min_confidence": config.min_confidence,
        "miner": config.miner,
        "build_item_index": config.build_item_index,
        "max_itemset_size": config.max_itemset_size,
    }


def _catalog_payload(catalog: RuleCatalog) -> List[Dict[str, Any]]:
    return [
        {"antecedent": list(rule.antecedent), "consequent": list(rule.consequent)}
        for rule in catalog
    ]


def _config_from(payload: Mapping[str, Any], path: Path) -> GenerationConfig:
    try:
        raw = payload["config"]
        return GenerationConfig(
            min_support=raw["min_support"],
            min_confidence=raw["min_confidence"],
            miner=raw["miner"],
            build_item_index=raw["build_item_index"],
            max_itemset_size=raw["max_itemset_size"],
        )
    except (KeyError, TypeError) as error:
        raise DataFormatError(
            f"{path}: malformed generation config in saved file: {error!r}"
        ) from error


def _catalog_from(payload: Mapping[str, Any], path: Path) -> RuleCatalog:
    catalog = RuleCatalog()
    try:
        for entry in payload["catalog"]:
            catalog.intern(
                Rule(
                    antecedent=tuple(entry["antecedent"]),
                    consequent=tuple(entry["consequent"]),
                )
            )
    except (KeyError, TypeError) as error:
        raise DataFormatError(
            f"{path}: malformed rule catalog in saved file: {error!r}"
        ) from error
    return catalog
