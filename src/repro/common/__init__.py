"""Cross-cutting utilities: errors, validation, timing, codecs."""

from repro.common.errors import (
    CodecError,
    DataFormatError,
    NotBuiltError,
    QueryError,
    ReproError,
    UnknownRuleError,
    UnknownWindowError,
    ValidationError,
)
from repro.common.gcscope import paused_gc

__all__ = [
    "CodecError",
    "DataFormatError",
    "NotBuiltError",
    "QueryError",
    "ReproError",
    "UnknownRuleError",
    "UnknownWindowError",
    "ValidationError",
    "paused_gc",
]
