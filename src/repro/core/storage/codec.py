"""The canonical per-rule series codec (delta + zigzag varints).

One byte string per rule: a sequence of ``(window-gap, Δ rule-count,
Δ antecedent-margin, Δ consequent-margin)`` entries.  Window ids are
strictly increasing so gaps are small positive ints; counts of a
surviving rule drift slowly so deltas are near zero — the typical entry
costs 4 bytes ("our specially designed encoding and decoding
strategies", paper Section 2.1.5).

This module is the codec's home since the storage layer grew its own
binary container (format v2): the v2 shard blocks store exactly these
byte strings raw, so both the in-memory archive
(:mod:`repro.core.archive`) and the mmap reader
(:mod:`repro.core.storage.reader`) must share one implementation.  The
archive re-exports :func:`encode_series`/:func:`decode_series` under
their historical private names.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.errors import CodecError
from repro.common.varint import decode_uvarint, encode_svarint, encode_uvarint

#: One archive entry:
#: (window, rule_count, antecedent_count, consequent_count).
Entry = Tuple[int, int, int, int]


def encode_series(series: List[Entry]) -> bytes:
    """Encode a rule's (window, counts...) series.

    Wire layout per entry: window gap (uvarint), then zigzag-varint
    deltas of the rule count and of the two margins
    ``antecedent - rule`` and ``consequent - rule`` (both non-negative
    by definition, and near-constant for a stable rule).  A gap below
    128 or a delta in ``[-64, 64)`` is one byte, written here in place;
    every other value goes through :mod:`repro.common.varint`.
    """
    out = bytearray()
    append = out.append
    previous_window = -1
    previous_rule_count = 0
    previous_margin = 0
    previous_consequent_margin = 0
    for window, rule_count, antecedent_count, consequent_count in series:
        if antecedent_count < rule_count or consequent_count < rule_count:
            raise CodecError(
                f"marginal counts ({antecedent_count}, {consequent_count}) "
                f"below rule count {rule_count}"
            )
        gap = window - previous_window
        if gap <= 0:
            raise CodecError("archive series windows must be strictly increasing")
        margin = antecedent_count - rule_count
        consequent_margin = consequent_count - rule_count
        if gap < 128:
            append(gap)
        else:
            encode_uvarint(gap, out)
        # zigzag(delta) is below 128 exactly when -64 <= delta < 64.
        delta = rule_count - previous_rule_count
        if -64 <= delta < 64:
            append((delta << 1) ^ (delta >> 63))
        else:
            encode_svarint(delta, out)
        delta = margin - previous_margin
        if -64 <= delta < 64:
            append((delta << 1) ^ (delta >> 63))
        else:
            encode_svarint(delta, out)
        delta = consequent_margin - previous_consequent_margin
        if -64 <= delta < 64:
            append((delta << 1) ^ (delta >> 63))
        else:
            encode_svarint(delta, out)
        previous_window = window
        previous_rule_count = rule_count
        previous_margin = margin
        previous_consequent_margin = consequent_margin
    return bytes(out)


def decode_series(blob: bytes) -> List[Entry]:
    """Inverse of :func:`encode_series`.

    A byte below 128 is a whole varint and is read in place; longer
    varints go through :mod:`repro.common.varint`.  A blob cut off
    inside an entry raises :class:`CodecError`.
    """
    series: List[Entry] = []
    append = series.append
    offset = 0
    end = len(blob)
    window = -1
    rule_count = 0
    margin = 0
    consequent_margin = 0
    try:
        while offset < end:
            value = blob[offset]
            if value < 128:
                offset += 1
            else:
                value, offset = decode_uvarint(blob, offset)
            window += value
            value = blob[offset]
            if value < 128:
                offset += 1
            else:
                value, offset = decode_uvarint(blob, offset)
            rule_count += (value >> 1) ^ -(value & 1)
            value = blob[offset]
            if value < 128:
                offset += 1
            else:
                value, offset = decode_uvarint(blob, offset)
            margin += (value >> 1) ^ -(value & 1)
            value = blob[offset]
            if value < 128:
                offset += 1
            else:
                value, offset = decode_uvarint(blob, offset)
            consequent_margin += (value >> 1) ^ -(value & 1)
            if rule_count < 0 or margin < 0 or consequent_margin < 0:
                raise CodecError("corrupt archive series: negative decoded count")
            append(
                (window, rule_count, rule_count + margin, rule_count + consequent_margin)
            )
    except IndexError as error:
        raise CodecError("truncated archive series entry") from error
    return series
