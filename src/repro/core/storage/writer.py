"""Writer for the segmented binary KB container (format v2).

The writer takes plain data — a JSON-able meta mapping, per-window count
tables, and per-rule encoded series blobs — so the storage layer stays
below :mod:`repro.core` in the import order: core calls down into this
module, never the reverse.

Layout is documented in :mod:`repro.core.storage.format`.  Determinism
matters here: rules are sharded in sorted id order, window blocks are
sorted by rule id, and the meta JSON is dumped with sorted keys, so the
same knowledge base always writes byte-identical containers (the
persistence round-trip tests diff at byte level).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.common.errors import ValidationError
from repro.common.varint import encode_uvarint
from repro.core.storage.format import (
    CONTAINER_FORMAT_VERSION,
    DEFAULT_SHARD_SIZE,
    MAGIC,
    SHARD_DIR_ENTRY,
    U64,
    WINDOW_DIR_ENTRY,
)

#: One window-block entry: (rule_id, rule_count, antecedent_count,
#: consequent_count) — the transposed per-window view of the archive.
WindowEntry = Tuple[int, int, int, int]


def encode_window_block(entries: Sequence[WindowEntry]) -> bytes:
    """Encode one window's count table (sorted by rule id).

    Each entry is four uvarints: the rule-id gap, the rule count and the
    two margins.  Most values are below 128, so they are written here
    as their one byte; only larger ones go through
    :func:`~repro.common.varint.encode_uvarint`.  The bytes are the same
    either way.
    """
    out = bytearray()
    append = out.append
    encode_uvarint(len(entries), out)
    previous_rule_id = -1
    for rule_id, rule_count, antecedent_count, consequent_count in entries:
        gap = rule_id - previous_rule_id
        if gap <= 0:
            raise ValidationError(
                f"window block entries must have strictly increasing rule "
                f"ids, got {rule_id} after {previous_rule_id}"
            )
        margin = antecedent_count - rule_count
        consequent_margin = consequent_count - rule_count
        if margin < 0 or consequent_margin < 0:
            raise ValidationError(
                f"rule {rule_id}: marginal counts ({antecedent_count}, "
                f"{consequent_count}) below the rule count {rule_count}"
            )
        # gap and both margins are positive or zero by the checks above;
        # a negative rule count must still reach encode_uvarint's error.
        if gap < 128:
            append(gap)
        else:
            encode_uvarint(gap, out)
        if 0 <= rule_count < 128:
            append(rule_count)
        else:
            encode_uvarint(rule_count, out)
        if margin < 128:
            append(margin)
        else:
            encode_uvarint(margin, out)
        if consequent_margin < 128:
            append(consequent_margin)
        else:
            encode_uvarint(consequent_margin, out)
        previous_rule_id = rule_id
    return bytes(out)


def encode_shard_block(shard: Sequence[Tuple[int, bytes]]) -> bytes:
    """Encode one shard: local directory, then concatenated series blobs.

    *shard* is the shard's ``(rule_id, encoded_series)`` pairs in
    ascending id order.
    """
    directory = bytearray()
    append = directory.append
    previous_rule_id = shard[0][0] - 1
    for rule_id, blob in shard:
        gap = rule_id - previous_rule_id
        if gap <= 0:
            raise ValidationError(
                f"shard rules must have strictly increasing ids, got "
                f"{rule_id} after {previous_rule_id}"
            )
        # One-byte values in place, as in encode_window_block.
        if gap < 128:
            append(gap)
        else:
            encode_uvarint(gap, directory)
        length = len(blob)
        if length < 128:
            append(length)
        else:
            encode_uvarint(length, directory)
        previous_rule_id = rule_id
    return bytes(directory) + b"".join(blob for _, blob in shard)


def write_container(
    path: Path,
    *,
    meta: Mapping[str, Any],
    window_entries: Sequence[Sequence[WindowEntry]],
    series: Iterable[Tuple[int, bytes]],
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> Dict[str, int]:
    """Write a complete v2 container to *path*.

    Args:
        meta: JSON-able container metadata; ``format_version`` and
            ``shard_size`` are stamped in by the writer.
        window_entries: per window, that window's
            ``(rule_id, rule_count, antecedent_count, consequent_count)``
            rows sorted by rule id.
        series: every rule's ``(rule_id, encoded_series)``; order is
            irrelevant (the writer sorts), ids must be unique and
            non-negative.
        shard_size: maximum rules per shard.

    Returns a summary dict (shard count, directory/meta/block byte
    sizes) for ``kb-info``-style reporting.
    """
    if shard_size <= 0:
        raise ValidationError(f"shard size must be positive, got {shard_size}")
    by_rule: Dict[int, bytes] = {}
    for rule_id, blob in series:
        if rule_id < 0:
            raise ValidationError(f"rule ids must be >= 0, got {rule_id}")
        if rule_id in by_rule:
            raise ValidationError(f"duplicate series for rule {rule_id}")
        by_rule[rule_id] = blob
    sorted_ids = sorted(by_rule)

    full_meta = dict(meta)
    full_meta["format_version"] = CONTAINER_FORMAT_VERSION
    full_meta["shard_size"] = shard_size
    meta_bytes = json.dumps(
        full_meta, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")

    window_blocks = [encode_window_block(entries) for entries in window_entries]
    shards: List[List[Tuple[int, bytes]]] = [
        [(rid, by_rule[rid]) for rid in sorted_ids[start : start + shard_size]]
        for start in range(0, len(sorted_ids), shard_size)
    ]
    shard_blocks = [encode_shard_block(shard) for shard in shards]

    window_count = len(window_blocks)
    shard_count = len(shard_blocks)
    blocks_start = (
        len(MAGIC)
        + U64.size
        + len(meta_bytes)
        + U64.size
        + window_count * WINDOW_DIR_ENTRY.size
        + U64.size
        + shard_count * SHARD_DIR_ENTRY.size
    )

    window_dir = bytearray()
    offset = blocks_start
    for block in window_blocks:
        window_dir += WINDOW_DIR_ENTRY.pack(offset, len(block))
        offset += len(block)
    shard_dir = bytearray()
    for shard, block in zip(shards, shard_blocks):
        shard_dir += SHARD_DIR_ENTRY.pack(
            shard[0][0], len(shard), offset, len(block)
        )
        offset += len(block)

    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(U64.pack(len(meta_bytes)))
        handle.write(meta_bytes)
        handle.write(U64.pack(window_count))
        handle.write(window_dir)
        handle.write(U64.pack(shard_count))
        handle.write(shard_dir)
        for block in window_blocks:
            handle.write(block)
        for block in shard_blocks:
            handle.write(block)

    return {
        "file_bytes": offset,
        "meta_bytes": len(meta_bytes),
        "window_count": window_count,
        "shard_count": shard_count,
        "rule_count": len(sorted_ids),
        "window_block_bytes": sum(len(b) for b in window_blocks),
        "shard_block_bytes": sum(len(b) for b in shard_blocks),
    }
