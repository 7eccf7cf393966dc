"""R007 positive fixture: mutable containers reach publish sinks."""

from dataclasses import dataclass
from typing import Dict


class ResponseCache:
    def put(self, key, value, epoch):
        return 0

    def put_gzip(self, key, value, epoch):
        return 0


@dataclass(frozen=True)
class Answer:
    # Mutable container inside a "frozen" published value -> finding.
    rows: Dict[int, str]


class Service:
    def __init__(self) -> None:
        self._cache = ResponseCache()

    def store(self, key, rows) -> None:
        value = [tuple(row) for row in rows]
        self._cache.put(key, value, 3)  # list into the cache -> finding

    # repro-lint: publish
    def freeze(self, rows):
        return {row[0]: row for row in rows}  # dict published -> finding


class Gateway:
    def __init__(self) -> None:
        self._respcache = ResponseCache()

    def store_body(self, key, chunks) -> None:
        value = bytearray(b"".join(chunks))
        self._respcache.put(key, value, 3)  # bytearray body -> finding

    def store_variant(self, key, frames) -> None:
        value = list(frames)
        self._respcache.put_gzip(key, value, 3)  # list body -> finding
