"""Memory-bounded ``mmap`` reader for v2 KB containers.

Opening a container is cheap and bounded: the reader maps the file,
parses the meta JSON and the two top-level directories, and validates
every directory entry against the file bounds — nothing else is
touched.  From there, everything is on-demand:

* a **shard-local directory** is decoded the first time any rule in its
  id range is looked up (one dict per shard, kept for the reader's
  lifetime — directories are tiny relative to series data);
* a rule's **encoded series** is a zero-copy slice of the map;
* a rule's **decoded series** is materialized on first touch and kept
  in a byte-budgeted :class:`~repro.core.storage.lru.ByteBudgetLRU`, so
  resident decoded state never exceeds ``memory_budget`` regardless of
  how many rules the workload sweeps over;
* a **window block** is decoded when that window's slice is first
  needed.

Every structural problem — bad magic, truncated header, a directory
entry pointing outside the file, a shard whose local directory does not
tile its block — raises :class:`~repro.common.errors.DataFormatError`
(with the underlying codec error chained), never a crash or a silent
partial load.
"""

from __future__ import annotations

import json
import mmap
import os
from bisect import bisect_right
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import (
    CodecError,
    DataFormatError,
    UnknownRuleError,
    UnknownWindowError,
)
from repro.common.varint import decode_uvarint
from repro.core.storage.codec import Entry, decode_series
from repro.core.storage.format import (
    CONTAINER_FORMAT_VERSION,
    HEADER_LEN,
    MAGIC,
    SHARD_DIR_ENTRY,
    U64,
    WINDOW_DIR_ENTRY,
)
from repro.core.storage.lru import ByteBudgetLRU, series_cost
from repro.core.storage.writer import WindowEntry

#: Per-rule slot in a decoded shard-local directory: (offset, length)
#: of the rule's series blob, offset absolute in the file.
_BlobSlot = Tuple[int, int]


class ShardedSeriesSource:
    """Lazy :class:`~repro.core.storage.source.SeriesSource` over a v2 file.

    Args:
        path: container written by
            :func:`repro.core.storage.writer.write_container`.
        memory_budget: byte budget for decoded series kept resident;
            ``None`` keeps everything touched (still lazy, never
            evicted).
    """

    def __init__(self, path: Path, memory_budget: Optional[int] = None) -> None:
        self.path = Path(path)
        self._file = open(self.path, "rb")
        try:
            size = os.fstat(self._file.fileno()).st_size
            if size < HEADER_LEN:
                raise DataFormatError(
                    f"{self.path}: file too short for a v2 container "
                    f"({size} < {HEADER_LEN} bytes)"
                )
            self._map: mmap.mmap = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
            self._size = size
            self.meta = self._read_meta()
            self._window_dir = self._read_window_dir()
            self._shard_dir = self._read_shard_dir()
        except Exception:
            self.close()
            raise
        self._first_rule_ids = [entry[0] for entry in self._shard_dir]
        self._total_rules = sum(entry[1] for entry in self._shard_dir)
        self._shard_slots: Dict[int, Dict[int, _BlobSlot]] = {}
        self._decoded = ByteBudgetLRU[int, List[Entry]](memory_budget)
        self._windows_decoded = 0

    # ------------------------------------------------------------------
    # container parsing (eager, bounded)
    # ------------------------------------------------------------------
    def _read_meta(self) -> Dict[str, Any]:
        if bytes(self._map[: len(MAGIC)]) != MAGIC:
            raise DataFormatError(
                f"{self.path}: not a v2 knowledge-base container (bad magic)"
            )
        (meta_len,) = U64.unpack_from(self._map, len(MAGIC))
        self._cursor = HEADER_LEN + meta_len
        if self._cursor > self._size:
            raise DataFormatError(
                f"{self.path}: meta length {meta_len} exceeds file size"
            )
        try:
            meta = json.loads(bytes(self._map[HEADER_LEN : self._cursor]))
        except (ValueError, UnicodeDecodeError) as error:
            raise DataFormatError(
                f"{self.path}: container meta is not valid JSON: {error}"
            ) from error
        if not isinstance(meta, dict):
            raise DataFormatError(f"{self.path}: container meta must be an object")
        version = meta.get("format_version")
        if version != CONTAINER_FORMAT_VERSION:
            raise DataFormatError(
                f"{self.path}: unsupported container format version {version!r}"
            )
        return meta

    def _read_count(self, what: str) -> int:
        if self._cursor + U64.size > self._size:
            raise DataFormatError(f"{self.path}: truncated {what} directory")
        (count,) = U64.unpack_from(self._map, self._cursor)
        self._cursor += U64.size
        return count

    def _read_window_dir(self) -> List[Tuple[int, int]]:
        count = self._read_count("window")
        end = self._cursor + count * WINDOW_DIR_ENTRY.size
        if end > self._size:
            raise DataFormatError(f"{self.path}: truncated window directory")
        entries: List[Tuple[int, int]] = []
        for _ in range(count):
            offset, length = WINDOW_DIR_ENTRY.unpack_from(self._map, self._cursor)
            self._cursor += WINDOW_DIR_ENTRY.size
            self._check_span("window block", offset, length)
            entries.append((offset, length))
        return entries

    def _read_shard_dir(self) -> List[Tuple[int, int, int, int]]:
        count = self._read_count("shard")
        end = self._cursor + count * SHARD_DIR_ENTRY.size
        if end > self._size:
            raise DataFormatError(f"{self.path}: truncated shard directory")
        entries: List[Tuple[int, int, int, int]] = []
        previous_first = -1
        for _ in range(count):
            first_rule_id, rule_count, offset, length = SHARD_DIR_ENTRY.unpack_from(
                self._map, self._cursor
            )
            self._cursor += SHARD_DIR_ENTRY.size
            if first_rule_id <= previous_first:
                raise DataFormatError(
                    f"{self.path}: shard directory first-rule ids not "
                    f"strictly increasing at {first_rule_id}"
                )
            if rule_count == 0:
                raise DataFormatError(f"{self.path}: shard directory lists an empty shard")
            self._check_span("shard block", offset, length)
            entries.append((first_rule_id, rule_count, offset, length))
            previous_first = first_rule_id
        return entries

    def _check_span(self, what: str, offset: int, length: int) -> None:
        if offset < HEADER_LEN or offset + length > self._size:
            raise DataFormatError(
                f"{self.path}: {what} span [{offset}, {offset + length}) "
                f"outside file of {self._size} byte(s)"
            )

    # ------------------------------------------------------------------
    # lazy shard access
    # ------------------------------------------------------------------
    def _shard_index_for(self, rule_id: int) -> Optional[int]:
        index = bisect_right(self._first_rule_ids, rule_id) - 1
        return index if index >= 0 else None

    def _slots(self, shard_index: int) -> Dict[int, _BlobSlot]:
        """The shard's rule-id -> blob-span map, decoding it on first touch."""
        slots = self._shard_slots.get(shard_index)
        if slots is not None:
            return slots
        first_rule_id, rule_count, offset, length = self._shard_dir[shard_index]
        block = self._map[offset : offset + length]
        slots = {}
        position = 0
        rule_id = first_rule_id - 1
        lengths: List[Tuple[int, int]] = []
        try:
            for _ in range(rule_count):
                # One-byte values in place, as in window_entries.
                gap = block[position]
                if gap < 128:
                    position += 1
                else:
                    gap, position = decode_uvarint(block, position)
                blob_length = block[position]
                if blob_length < 128:
                    position += 1
                else:
                    blob_length, position = decode_uvarint(block, position)
                if gap == 0:
                    raise DataFormatError(
                        f"{self.path}: shard {shard_index} local directory "
                        f"has a non-increasing rule id"
                    )
                rule_id += gap
                lengths.append((rule_id, blob_length))
        except CodecError as error:
            raise DataFormatError(
                f"{self.path}: corrupt local directory in shard "
                f"{shard_index}: {error}"
            ) from error
        except IndexError as error:
            raise DataFormatError(
                f"{self.path}: local directory of shard {shard_index} ends "
                f"inside an entry"
            ) from error
        blob_offset = offset + position
        for rule_id, blob_length in lengths:
            slots[rule_id] = (blob_offset, blob_length)
            blob_offset += blob_length
        if blob_offset != offset + length:
            raise DataFormatError(
                f"{self.path}: shard {shard_index} blobs do not tile its "
                f"block ({blob_offset - offset} != {length} bytes)"
            )
        self._shard_slots[shard_index] = slots
        return slots

    def _slot_for(self, rule_id: int) -> Optional[_BlobSlot]:
        shard_index = self._shard_index_for(rule_id)
        if shard_index is None:
            return None
        return self._slots(shard_index).get(rule_id)

    # ------------------------------------------------------------------
    # SeriesSource API
    # ------------------------------------------------------------------
    def __contains__(self, rule_id: int) -> bool:
        if not isinstance(rule_id, int) or rule_id < 0:
            return False
        return self._slot_for(rule_id) is not None

    def __len__(self) -> int:
        return self._total_rules

    def rule_ids(self) -> Iterator[int]:
        """All archived rule ids, ascending (decodes every local directory)."""
        for shard_index in range(len(self._shard_dir)):
            yield from sorted(self._slots(shard_index))

    def encoded_series(self, rule_id: int) -> bytes:
        """One rule's series blob, sliced straight out of the map."""
        slot = self._slot_for(rule_id)
        if slot is None:
            raise UnknownRuleError(f"rule {rule_id} has no archived entries")
        offset, length = slot
        return bytes(self._map[offset : offset + length])

    def series_entries(self, rule_id: int) -> List[Entry]:
        """One rule's decoded entries, via the byte-budgeted LRU."""
        cached = self._decoded.get(rule_id)
        if cached is not None:
            return cached
        try:
            entries = decode_series(self.encoded_series(rule_id))
        except CodecError as error:
            raise DataFormatError(
                f"{self.path}: corrupt series for rule {rule_id}: {error}"
            ) from error
        self._decoded.put(rule_id, entries, series_cost(len(entries)))
        return entries

    # ------------------------------------------------------------------
    # window blocks
    # ------------------------------------------------------------------
    @property
    def window_count(self) -> int:
        """Number of window blocks listed in the directory."""
        return len(self._window_dir)

    def window_entries(self, window: int) -> List[WindowEntry]:
        """Decode one window's count table (rule id ascending).

        A byte below 128 is a whole uvarint and is read in place; longer
        ones go through :func:`~repro.common.varint.decode_uvarint`.  A
        block cut off inside an entry raises :class:`DataFormatError`.
        """
        if not 0 <= window < len(self._window_dir):
            raise UnknownWindowError(
                f"window {window} out of range [0, {len(self._window_dir)})"
            )
        offset, length = self._window_dir[window]
        block = self._map[offset : offset + length]
        entries: List[WindowEntry] = []
        append = entries.append
        try:
            entry_count, position = decode_uvarint(block, 0) if length else (0, 0)
            rule_id = -1
            for _ in range(entry_count):
                gap = block[position]
                if gap < 128:
                    position += 1
                else:
                    gap, position = decode_uvarint(block, position)
                rule_count = block[position]
                if rule_count < 128:
                    position += 1
                else:
                    rule_count, position = decode_uvarint(block, position)
                antecedent_margin = block[position]
                if antecedent_margin < 128:
                    position += 1
                else:
                    antecedent_margin, position = decode_uvarint(block, position)
                consequent_margin = block[position]
                if consequent_margin < 128:
                    position += 1
                else:
                    consequent_margin, position = decode_uvarint(block, position)
                if gap == 0:
                    raise DataFormatError(
                        f"{self.path}: window {window} block has a "
                        f"non-increasing rule id"
                    )
                rule_id += gap
                append(
                    (
                        rule_id,
                        rule_count,
                        rule_count + antecedent_margin,
                        rule_count + consequent_margin,
                    )
                )
        except CodecError as error:
            raise DataFormatError(
                f"{self.path}: corrupt window block {window}: {error}"
            ) from error
        except IndexError as error:
            raise DataFormatError(
                f"{self.path}: window block {window} ends inside an entry"
            ) from error
        if position != length:
            raise DataFormatError(
                f"{self.path}: window block {window} has {length - position} "
                f"trailing byte(s)"
            )
        self._windows_decoded += 1
        return entries

    # ------------------------------------------------------------------
    # accounting / lifecycle
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Laziness evidence: shard/window touch counts + LRU accounting."""
        merged = {
            "shard_count": len(self._shard_dir),
            "shards_decoded": len(self._shard_slots),
            "window_count": len(self._window_dir),
            "windows_decoded": self._windows_decoded,
        }
        merged.update(
            {f"cache_{key}": value for key, value in self._decoded.counters().items()}
        )
        return merged

    def close(self) -> None:
        """Unmap and close the container file (idempotent)."""
        map_object = getattr(self, "_map", None)
        if map_object is not None:
            map_object.close()
            self._map = None  # type: ignore[assignment]
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "ShardedSeriesSource":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
