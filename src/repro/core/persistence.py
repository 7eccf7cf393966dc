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
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.common.errors import DataFormatError
from repro.common.gcscope import paused_gc
from repro.common.timing import PhaseTimer
from repro.core.archive import TarArchive, _decode_series, encode_window_series
from repro.core.builder import GenerationConfig, TaraKnowledgeBase
from repro.core.lazykb import LazyTaraKnowledgeBase
from repro.core.regions import WindowSlice
from repro.core.storage.format import (
    CONTAINER_FORMAT_VERSION,
    DEFAULT_SHARD_SIZE,
    MAGIC,
)
from repro.core.storage.reader import ShardedSeriesSource
from repro.core.storage.writer import WindowEntry, write_container
from repro.mining.rules import Rule, RuleCatalog

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

    Saving only reads: a published snapshot shares its archive columns
    and catalog with later snapshots, so it can be saved while the
    publisher builds.  Both formats take each window's rows from
    :meth:`TarArchive.window_entries` and encode every rule's series
    from them in one pass.  *shard_size* only applies to v2.  The save
    runs under :func:`paused_gc`: it allocates only acyclic temporaries,
    so a collector pass would rescan the knowledge base for nothing.
    """
    if format_version not in (FORMAT_VERSION, CONTAINER_FORMAT_VERSION):
        raise DataFormatError(
            f"unknown knowledge-base format version {format_version!r} "
            f"(known: {FORMAT_VERSION}, {CONTAINER_FORMAT_VERSION})"
        )
    with paused_gc():
        if format_version == CONTAINER_FORMAT_VERSION:
            return _save_v2(knowledge_base, Path(path), shard_size)
        return _save_v1(knowledge_base, Path(path))


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
    Both loads run under :func:`paused_gc`, like the offline build.
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
    # Either load only allocates what it keeps (the catalog, the v1
    # rebuild) and acyclic temporaries, so collector passes would only
    # rescan it.
    with paused_gc():
        if head == MAGIC:
            return _load_v2(file_path, memory_budget)
        return _load_v1(file_path)


# ----------------------------------------------------------------------
# format v2: segmented binary container, lazy load
# ----------------------------------------------------------------------
def _save_v2(
    knowledge_base: TaraKnowledgeBase, path: Path, shard_size: int
) -> int:
    archive = knowledge_base.archive
    per_window = [
        archive.window_entries(w) for w in range(archive.window_count)
    ]
    encoded = encode_window_series(per_window)
    meta = {
        "config": _config_payload(knowledge_base.config),
        "window_sizes": list(knowledge_base.window_sizes),
        "missing_count_bounds": [
            archive.missing_count_bound(w) for w in range(archive.window_count)
        ],
        "catalog": _catalog_payload(knowledge_base.catalog),
        "counts": {
            "rules": len(encoded),
            "windows": archive.window_count,
            "entries": sum(len(rows) for rows in per_window),
            "encoded_bytes": sum(len(blob) for _, blob in encoded),
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
    archive = knowledge_base.archive
    per_window = [
        archive.window_entries(w) for w in range(archive.window_count)
    ]
    payload = {
        "format_version": FORMAT_VERSION,
        "config": _config_payload(knowledge_base.config),
        "window_sizes": list(knowledge_base.window_sizes),
        "missing_count_bounds": [
            archive.missing_count_bound(w) for w in range(archive.window_count)
        ],
        "rules_in_window": [[row[0] for row in rows] for rows in per_window],
        "catalog": _catalog_payload(knowledge_base.catalog),
        "archive": {
            str(rule_id): base64.b85encode(blob).decode("ascii")
            for rule_id, blob in encode_window_series(per_window)
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
    if not (len(window_sizes) == len(bounds) == len(payload["rules_in_window"])):
        raise DataFormatError("inconsistent window bookkeeping in saved file")

    # Transpose every rule's series into per-window rows; ascending rule
    # ids keep each window's rows in id order.
    rows: List[List[WindowEntry]] = [[] for _ in window_sizes]
    blobs = sorted((int(key), text) for key, text in payload["archive"].items())
    for rule_id, blob_text in blobs:
        if not 0 <= rule_id < len(catalog):
            raise DataFormatError(f"archived rule {rule_id} is not in the catalog")
        blob = base64.b85decode(blob_text.encode("ascii"))
        previous_window = -1
        for window, rule_count, antecedent_count, consequent_count in (
            _decode_series(blob)
        ):
            if not previous_window < window < len(window_sizes):
                raise DataFormatError(
                    f"rule {rule_id} references unknown or repeated window {window}"
                )
            previous_window = window
            rows[window].append((rule_id, rule_count, antecedent_count, consequent_count))

    item_catalog = catalog if config.build_item_index else None
    return TaraKnowledgeBase(
        config=config,
        catalog=catalog,
        archive=TarArchive.from_rows(rows, window_sizes, bounds),
        slices=[
            WindowSlice.from_rows(
                window,
                window_sizes[window],
                window_rows,
                generation_setting=config.setting,
                catalog=item_catalog,
            )
            for window, window_rows in enumerate(rows)
        ],
        rules_in_window=[[row[0] for row in window_rows] for window_rows in rows],
        window_sizes=window_sizes,
        timer=PhaseTimer(),
    )


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
    # json writes the itemset tuples as arrays, as it would lists.
    return [
        {"antecedent": rule.antecedent, "consequent": rule.consequent}
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
