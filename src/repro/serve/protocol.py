"""The JSON wire protocol of the network serving tier.

Every Q1–Q5 request class has one JSON representation that decodes to
the exact frozen request dataclass of :mod:`repro.core.queries`, and
every answer type has one JSON representation built from caller-owned
values.  The contract (documented for clients in docs/serving.md):

* **requests round-trip through canonicalization** — for any query
  ``q``, ``decode_request(kind, encode_request(q))`` equals ``q`` and
  therefore canonicalizes (:func:`repro.service.keys.canonicalize`) to
  the same integer region key; the wire adds no float drift because
  JSON floats round-trip exactly through ``repr``;
* **answers carry exact boundaries twice** — stable-region boundaries
  are exact rationals in the index; the wire reports both the float
  projection (for humans and plotting) and the ``"p/q"`` string (for
  clients that need the exactness guarantee to survive the socket);
* **unknown fields are rejected** — a typo in a request field is a
  ``ProtocolError`` (HTTP 400), never a silently-ignored default.

The error envelope is ``{"ok": false, "error": {"code", "message"}}``;
success is ``{"ok": true, "query_class", "epoch", "snapshot_epoch",
"coalesced", "answer"}``.  The envelope is assembled by the gateway
(:mod:`repro.serve.gateway`); this module only maps values.

**Compatibility rule (PR 8).**  The envelope's ``"epoch"`` field
predates the MVCC snapshot redesign and is frozen for existing
clients; ``"snapshot_epoch"`` carries the identical value under its
honest name — the epoch of the immutable snapshot the request was
pinned to, which is also the window count the answer reflects.  New
fields are only ever *added* to the success envelope (clients must
ignore fields they do not know); request decoding stays strict in the
other direction (unknown request fields remain errors).  The writer
path (``POST /v1/admin/append``) carries window batches in the shape
``{"batches": [[{"items": [...], "time": t}, ...], ...]}`` — one inner
array per basic window, strict like every other request.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ProtocolError
from repro.core.queries import (
    CompareQuery,
    ComparisonResult,
    ContentQuery,
    ExplorerQuery,
    MatchMode,
    Recommendation,
    RecommendQuery,
    RolledUpRule,
    RollupAnswer,
    RollupQuery,
    RuleTrajectory,
    TrajectoryQuery,
    WindowDiff,
)
from repro.core.regions import ParameterSetting, StableRegion
from repro.data.periods import PeriodSpec
from repro.data.transactions import Transaction
from repro.mining.rules import Rule, RuleId

#: JSON object type used throughout the wire layer.
JsonDict = Dict[str, Any]

#: Endpoint kind -> query class label, in route order.
QUERY_KINDS: Dict[str, str] = {
    "trajectory": "Q1",
    "compare": "Q2",
    "recommend": "Q3",
    "content": "Q5",
    "rollup": "rollup",
}

_MODE_NAMES = {MatchMode.SINGLE: "single", MatchMode.EXACT: "exact"}
_MODES_BY_NAME = {name: mode for mode, name in _MODE_NAMES.items()}


# ----------------------------------------------------------------------
# decoding helpers (wire JSON -> typed values, strict)
# ----------------------------------------------------------------------
def _require_object(payload: object, what: str) -> JsonDict:
    if not isinstance(payload, dict):
        raise ProtocolError(f"{what} must be a JSON object, got {type(payload).__name__}")
    return payload

def _reject_unknown(payload: JsonDict, allowed: Sequence[str], what: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ProtocolError(
            f"unknown field(s) {', '.join(map(repr, unknown))} in {what}; "
            f"allowed: {', '.join(allowed)}"
        )

def _number(payload: JsonDict, field: str, what: str) -> float:
    value = payload.get(field)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProtocolError(f"{what}.{field} must be a number, got {value!r}")
    return float(value)

def _int_field(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"{what} must be an integer, got {value!r}")
    return value


def _decode_setting(payload: object, what: str) -> ParameterSetting:
    """Decode ``{"minsupp": f, "minconf": f}`` (paper flag spellings)."""
    obj = _require_object(payload, what)
    _reject_unknown(obj, ("minsupp", "minconf"), what)
    if "minsupp" not in obj or "minconf" not in obj:
        raise ProtocolError(f"{what} needs both 'minsupp' and 'minconf'")
    return ParameterSetting(
        min_support=_number(obj, "minsupp", what),
        min_confidence=_number(obj, "minconf", what),
    )


def _decode_windows(value: object, what: str) -> Optional[PeriodSpec]:
    """Decode an optional window list into a :class:`PeriodSpec`."""
    if value is None:
        return None
    if not isinstance(value, list) or not value:
        raise ProtocolError(f"{what} must be a non-empty array of window indexes")
    return PeriodSpec(_int_field(window, f"{what}[]") for window in value)


# ----------------------------------------------------------------------
# request (de)serialization
# ----------------------------------------------------------------------
def decode_request(kind: str, payload: object) -> ExplorerQuery:
    """Decode one wire request of endpoint *kind* into its dataclass.

    Raises :class:`ProtocolError` on structural problems (the transport
    maps it to HTTP 400); domain errors (setting out of [0, 1], window
    out of range) surface as the usual :class:`ReproError` types when
    the dataclass validates or the query executes.
    """
    body = _require_object(payload, f"{kind} request")
    if kind == "trajectory":
        _reject_unknown(body, ("setting", "anchor_window", "windows"), kind)
        if "setting" not in body or "anchor_window" not in body:
            raise ProtocolError("trajectory request needs 'setting' and 'anchor_window'")
        return TrajectoryQuery(
            setting=_decode_setting(body["setting"], "setting"),
            anchor_window=_int_field(body["anchor_window"], "anchor_window"),
            spec=_decode_windows(body.get("windows"), "windows"),
        )
    if kind == "compare":
        _reject_unknown(body, ("first", "second", "windows", "mode"), kind)
        if "first" not in body or "second" not in body:
            raise ProtocolError("compare request needs 'first' and 'second'")
        mode_name = body.get("mode", "single")
        if mode_name not in _MODES_BY_NAME:
            raise ProtocolError(
                f"compare mode must be 'single' or 'exact', got {mode_name!r}"
            )
        return CompareQuery(
            first=_decode_setting(body["first"], "first"),
            second=_decode_setting(body["second"], "second"),
            spec=_decode_windows(body.get("windows"), "windows"),
            mode=_MODES_BY_NAME[mode_name],
        )
    if kind == "recommend":
        _reject_unknown(body, ("setting", "window"), kind)
        if "setting" not in body:
            raise ProtocolError("recommend request needs 'setting'")
        window = body.get("window")
        return RecommendQuery(
            setting=_decode_setting(body["setting"], "setting"),
            window=None if window is None else _int_field(window, "window"),
        )
    if kind == "content":
        _reject_unknown(body, ("setting", "items", "windows"), kind)
        if "setting" not in body or "items" not in body:
            raise ProtocolError("content request needs 'setting' and 'items'")
        items = body["items"]
        if not isinstance(items, list) or not items:
            raise ProtocolError("content 'items' must be a non-empty array of item ids")
        return ContentQuery(
            setting=_decode_setting(body["setting"], "setting"),
            items=tuple(_int_field(item, "items[]") for item in items),
            spec=_decode_windows(body.get("windows"), "windows"),
        )
    if kind == "rollup":
        _reject_unknown(body, ("setting", "windows"), kind)
        if "setting" not in body or body.get("windows") is None:
            raise ProtocolError("rollup request needs 'setting' and 'windows'")
        spec = _decode_windows(body["windows"], "windows")
        assert spec is not None  # _decode_windows(None) excluded above
        return RollupQuery(
            setting=_decode_setting(body["setting"], "setting"), spec=spec
        )
    raise ProtocolError(
        f"unknown query kind {kind!r}; expected one of {', '.join(QUERY_KINDS)}"
    )


def encode_setting(setting: ParameterSetting) -> JsonDict:
    """Encode a :class:`ParameterSetting` in the wire spelling."""
    return {"minsupp": setting.min_support, "minconf": setting.min_confidence}


def encode_request(query: ExplorerQuery) -> Tuple[str, JsonDict]:
    """Encode *query* as ``(kind, payload)`` — the client-side inverse.

    ``decode_request(kind, payload)`` returns a dataclass equal to
    *query* (and hence the same canonical region key); property-tested
    in ``tests/serve/test_protocol.py``.
    """
    if isinstance(query, TrajectoryQuery):
        return "trajectory", {
            "setting": encode_setting(query.setting),
            "anchor_window": query.anchor_window,
            "windows": None if query.spec is None else list(query.spec.windows),
        }
    if isinstance(query, CompareQuery):
        return "compare", {
            "first": encode_setting(query.first),
            "second": encode_setting(query.second),
            "windows": None if query.spec is None else list(query.spec.windows),
            "mode": _MODE_NAMES[query.mode],
        }
    if isinstance(query, RecommendQuery):
        return "recommend", {
            "setting": encode_setting(query.setting),
            "window": query.window,
        }
    if isinstance(query, ContentQuery):
        return "content", {
            "setting": encode_setting(query.setting),
            "items": list(query.items),
            "windows": None if query.spec is None else list(query.spec.windows),
        }
    if isinstance(query, RollupQuery):
        return "rollup", {
            "setting": encode_setting(query.setting),
            "windows": list(query.spec.windows),
        }
    raise ProtocolError(f"cannot encode a {type(query).__name__!r} request")


# ----------------------------------------------------------------------
# writer path: window batches (POST /v1/admin/append)
# ----------------------------------------------------------------------
def decode_batches(payload: object) -> List[List[Transaction]]:
    """Decode an append request into window batches of transactions.

    Wire shape (strict — unknown fields are :class:`ProtocolError`)::

        {"batches": [[{"items": [2, 7], "time": 3}, ...], ...]}

    Each inner array becomes one basic window, in order.  Structural
    problems raise :class:`ProtocolError`; domain problems (empty
    batch, unsorted timestamps, non-canonical itemsets) surface as the
    usual :class:`~repro.common.errors.ValidationError` /
    ``DataFormatError`` when the publisher validates.
    """
    body = _require_object(payload, "append request")
    _reject_unknown(body, ("batches",), "append request")
    batches = body.get("batches")
    if not isinstance(batches, list) or not batches:
        raise ProtocolError(
            "append request needs a non-empty 'batches' array"
        )
    decoded: List[List[Transaction]] = []
    for batch_index, batch in enumerate(batches):
        what = f"batches[{batch_index}]"
        if not isinstance(batch, list):
            raise ProtocolError(f"{what} must be an array of transactions")
        window: List[Transaction] = []
        for txn_index, txn in enumerate(batch):
            txn_what = f"{what}[{txn_index}]"
            obj = _require_object(txn, txn_what)
            _reject_unknown(obj, ("items", "time"), txn_what)
            if "items" not in obj or "time" not in obj:
                raise ProtocolError(f"{txn_what} needs 'items' and 'time'")
            items = obj["items"]
            if not isinstance(items, list) or not items:
                raise ProtocolError(
                    f"{txn_what}.items must be a non-empty array of item ids"
                )
            window.append(
                Transaction.create(
                    items=[
                        _int_field(item, f"{txn_what}.items[]")
                        for item in items
                    ],
                    time=_int_field(obj["time"], f"{txn_what}.time"),
                )
            )
        decoded.append(window)
    return decoded


def encode_batches(batches: Sequence[Sequence[Transaction]]) -> JsonDict:
    """Encode window batches for the wire — inverse of :func:`decode_batches`."""
    return {
        "batches": [
            [
                {"items": list(txn.items), "time": txn.time}
                for txn in batch
            ]
            for batch in batches
        ]
    }


# ----------------------------------------------------------------------
# answer serialization
# ----------------------------------------------------------------------
def _encode_rule(rule_id: RuleId, rule: Rule) -> JsonDict:
    return {
        "rule_id": rule_id,
        "antecedent": list(rule.antecedent),
        "consequent": list(rule.consequent),
        "rule": rule.format(),
    }


@lru_cache(maxsize=16384)
def _encode_fraction(value: Fraction) -> str:
    """Exact rational as ``"p/q"`` — survives the socket losslessly.

    Interned: exact region boundaries are epoch-stable, so the same
    ``Fraction`` re-serializes from the memo instead of re-formatting.
    """
    return f"{value.numerator}/{value.denominator}"


def _encode_region(region: StableRegion) -> JsonDict:
    payload: JsonDict = {
        "window": region.window,
        "empty": region.is_empty,
        "ruleset_size": region.ruleset_size,
        "support_floor": float(region.support_floor),
        "support_floor_exact": _encode_fraction(region.support_floor),
        "confidence_floor": float(region.confidence_floor),
        "confidence_floor_exact": _encode_fraction(region.confidence_floor),
        "cut": None,
    }
    if region.cut is not None:
        payload["cut"] = {
            "support": region.cut.support_float,
            "support_exact": _encode_fraction(region.cut.support),
            "confidence": region.cut.confidence_float,
            "confidence_exact": _encode_fraction(region.cut.confidence),
        }
    return payload


def _encode_trajectories(trajectories: List[RuleTrajectory]) -> JsonDict:
    rows: List[JsonDict] = []
    for trajectory in trajectories:
        measures: JsonDict = {}
        for window in sorted(trajectory.measures):
            measure = trajectory.measures[window]
            measures[str(window)] = (
                None
                if measure is None
                else {
                    "rule_count": measure.rule_count,
                    "antecedent_count": measure.antecedent_count,
                    "consequent_count": measure.consequent_count,
                    "window_size": measure.window_size,
                    "support": measure.support,
                    "confidence": measure.confidence,
                }
            )
        row = _encode_rule(trajectory.rule_id, trajectory.rule)
        row["measures"] = measures
        rows.append(row)
    return {"trajectories": rows}


def _encode_window_diff(diff: WindowDiff) -> JsonDict:
    return {
        "window": diff.window,
        "only_first": list(diff.only_first),
        "only_second": list(diff.only_second),
        "common": list(diff.common),
    }


def _encode_comparison(result: ComparisonResult) -> JsonDict:
    return {
        "first": encode_setting(result.first),
        "second": encode_setting(result.second),
        "mode": _MODE_NAMES[result.mode],
        "only_first": list(result.only_first),
        "only_second": list(result.only_second),
        "difference_size": result.difference_size,
        "per_window": [_encode_window_diff(diff) for diff in result.per_window],
    }


def _encode_recommendation(recommendation: Recommendation) -> JsonDict:
    return {
        "window": recommendation.window,
        "setting": encode_setting(recommendation.setting),
        "region": _encode_region(recommendation.region),
        "neighbors": {
            direction: _encode_region(region)
            for direction, region in sorted(recommendation.neighbors.items())
        },
    }


def _encode_content(per_window: Mapping[int, List[RuleId]]) -> JsonDict:
    return {
        "per_window": {
            str(window): list(per_window[window]) for window in sorted(per_window)
        }
    }


def _encode_rollup(answer: RollupAnswer) -> JsonDict:
    def rolled(rules: Sequence[RolledUpRule]) -> List[JsonDict]:
        rows = []
        for rolled_rule in rules:
            measure = rolled_rule.measure
            row = _encode_rule(rolled_rule.rule_id, rolled_rule.rule)
            row["measure"] = {
                "rule_count": measure.rule_count,
                "antecedent_count": measure.antecedent_count,
                "total_size": measure.total_size,
                "windows_present": list(measure.windows_present),
                "windows_missing": list(measure.windows_missing),
                "support": measure.support,
                "support_low": measure.support_low,
                "support_high": measure.support_high,
                "confidence": measure.confidence,
                "confidence_low": measure.confidence_low,
                "confidence_high": measure.confidence_high,
            }
            rows.append(row)
        return rows

    return {
        "setting": encode_setting(answer.setting),
        "windows": list(answer.windows),
        "is_exact": answer.is_exact,
        "max_support_error": answer.max_support_error,
        "certain": rolled(answer.certain),
        "possible": rolled(answer.possible),
    }


def encode_answer(query_class: str, answer: object) -> JsonDict:
    """Encode one explorer/service answer for the wire.

    *query_class* is the canonical label (``Q1``/``Q2``/``Q3``/``Q5``/
    ``rollup``) — the same string the metrics layer uses, produced by
    :func:`repro.service.keys.canonicalize`.  The encoding is
    deterministic (sorted windows, sorted neighbor directions), so two
    equal answers always serialize to the same JSON — the property the
    served == direct tests and perfbench's body verification compare on.
    """
    if query_class == "Q1":
        assert isinstance(answer, list)
        return _encode_trajectories(answer)
    if query_class == "Q2":
        assert isinstance(answer, ComparisonResult)
        return _encode_comparison(answer)
    if query_class == "Q3":
        assert isinstance(answer, Recommendation)
        return _encode_recommendation(answer)
    if query_class == "Q5":
        assert isinstance(answer, dict)
        return _encode_content(answer)
    if query_class == "rollup":
        assert isinstance(answer, RollupAnswer)
        return _encode_rollup(answer)
    raise ProtocolError(f"cannot encode an answer of class {query_class!r}")


# ----------------------------------------------------------------------
# byte-level answer encoding (the wire-hot path)
# ----------------------------------------------------------------------
#: Compact separators — the canonical wire serialization.  Key order is
#: insertion order (NOT sort_keys: measure windows are emitted in
#: numeric order, which string sorting would scramble at window 10).
_COMPACT: Tuple[str, str] = (",", ":")

#: Target size of one streamed body chunk (rows are packed up to this).
DEFAULT_CHUNK_TARGET = 32 * 1024


def dumps_bytes(value: object) -> bytes:
    """Canonical compact UTF-8 JSON — the serialization every response
    body uses, so cached bytes and freshly-encoded bytes are comparable.
    """
    return json.dumps(value, separators=_COMPACT).encode("utf-8")


@lru_cache(maxsize=65536)
def _rule_prefix_bytes(rule_id: RuleId, rule: Rule) -> bytes:
    """The encoded rule-row head, missing only its closing brace.

    Rules are interned per knowledge base and rule ids are stable across
    epochs, so the (id, rule) pair memoizes perfectly: a 20k-row Q1
    answer re-encodes its per-rule fragments exactly once per process,
    not once per request.
    """
    return dumps_bytes(_encode_rule(rule_id, rule))[:-1]


def _chunked(parts: Iterable[bytes], target: int) -> Iterator[bytes]:
    """Pack tiny row fragments into ~*target*-byte chunks."""
    pending: List[bytes] = []
    size = 0
    for part in parts:
        pending.append(part)
        size += len(part)
        if size >= target:
            yield b"".join(pending)
            pending.clear()
            size = 0
    if pending:
        yield b"".join(pending)


def _iter_trajectory_bytes(
    trajectories: Sequence[RuleTrajectory],
) -> Iterator[bytes]:
    yield b'{"trajectories":['
    comma = b""
    for trajectory in trajectories:
        measures: JsonDict = {}
        for window in sorted(trajectory.measures):
            measure = trajectory.measures[window]
            measures[str(window)] = (
                None
                if measure is None
                else {
                    "rule_count": measure.rule_count,
                    "antecedent_count": measure.antecedent_count,
                    "consequent_count": measure.consequent_count,
                    "window_size": measure.window_size,
                    "support": measure.support,
                    "confidence": measure.confidence,
                }
            )
        yield (
            comma
            + _rule_prefix_bytes(trajectory.rule_id, trajectory.rule)
            + b',"measures":'
            + dumps_bytes(measures)
            + b"}"
        )
        comma = b","
    yield b"]}"


def _iter_content_bytes(
    per_window: Mapping[int, List[RuleId]]
) -> Iterator[bytes]:
    yield b'{"per_window":{'
    comma = b""
    for window in sorted(per_window):
        yield (
            comma
            + dumps_bytes(str(window))
            + b":"
            + dumps_bytes(list(per_window[window]))
        )
        comma = b","
    yield b"}}"


def encode_answer_bytes(
    query_class: str,
    answer: object,
    *,
    chunk_target: int = DEFAULT_CHUNK_TARGET,
) -> Iterator[bytes]:
    """Encode one answer as an iterator of UTF-8 byte chunks.

    The concatenation of the chunks is byte-identical to
    ``dumps_bytes(encode_answer(query_class, answer))`` for every query
    class (property-tested in ``tests/serve/test_protocol_bytes.py``) —
    but the large row-shaped answers (Q1 trajectories, Q5 per-window
    rulesets) are produced incrementally with memoized per-rule
    fragments instead of one giant dict → ``dumps`` pass, so a streamed
    body never materializes the whole answer dict and re-encoding the
    same rules across requests is a cache lookup, not a serialization.
    """
    if query_class == "Q1":
        assert isinstance(answer, (list, tuple))
        return _chunked(_iter_trajectory_bytes(answer), chunk_target)
    if query_class == "Q5":
        assert isinstance(answer, dict)
        return _chunked(_iter_content_bytes(answer), chunk_target)
    return iter((dumps_bytes(encode_answer(query_class, answer)),))


def encode_answer_blob(query_class: str, answer: object) -> bytes:
    """The full canonical encoding as one contiguous byte string."""
    return b"".join(encode_answer_bytes(query_class, answer))


def envelope_prefix(
    query_class: str,
    epoch: int,
    *,
    coalesced: bool,
    cached: bool,
) -> bytes:
    """The success envelope up to (and including) ``"answer":``.

    A response body is ``prefix + answer bytes + ENVELOPE_SUFFIX`` —
    assembling it never re-serializes the answer, which is what lets
    the response cache and the coalescer share encoded bytes.  The
    ``"cached"`` field is additive (clients ignore unknown fields).
    """
    return (
        '{"ok":true,"query_class":%s,"epoch":%d,"snapshot_epoch":%d,'
        '"coalesced":%s,"cached":%s,"answer":'
        % (
            json.dumps(query_class),
            epoch,
            epoch,
            "true" if coalesced else "false",
            "true" if cached else "false",
        )
    ).encode("utf-8")


#: Closing brace of the success envelope.
ENVELOPE_SUFFIX = b"}"
