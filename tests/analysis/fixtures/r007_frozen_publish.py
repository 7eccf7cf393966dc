"""R007 negative fixture: publish sinks only receive frozen values."""

from dataclasses import dataclass
from typing import Mapping, Tuple


class ResponseCache:
    def put(self, key, value, epoch):
        return 0

    def put_gzip(self, key, value, epoch):
        return 0


@dataclass(frozen=True)
class Answer:
    rows: Tuple[int, ...]
    labels: Mapping[int, str]


class Service:
    def __init__(self) -> None:
        self._cache = ResponseCache()

    def store(self, key, rows) -> None:
        staged = [tuple(row) for row in rows]
        value = tuple(staged)  # frozen before the sink
        self._cache.put(key, value, 3)

    # repro-lint: publish
    def freeze(self, rows):
        return tuple(tuple(row) for row in rows)


class Gateway:
    def __init__(self) -> None:
        self._respcache = ResponseCache()

    def store_body(self, key, chunks) -> None:
        value = b"".join(chunks)  # bytes are frozen before the sink
        self._respcache.put(key, value, 3)
        self._respcache.put_gzip(key, value, 3)
