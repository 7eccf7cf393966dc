"""The Temporal Association Rule Archive (TAR Archive).

The archive is TARA's compact per-rule history store: for every rule it
records, per window in which the rule was generated, the integer counts
that determine all its measures —

* the rule count  ``|F(X ∪ Y, D, T_i)|``,
* the antecedent count ``|F(X, D, T_i)|``,
* the consequent count ``|F(Y, D, T_i)|`` (enables lift and friends),
* (shared across rules) the window size ``|F(∅, D, T_i)|``.

Keeping *counts* instead of the (support, confidence) ratios is the key
design decision: counts are additive, so measures over any union of
windows — the roll-up operation — are computed exactly without touching
the raw data.

Encoding ("our specially designed encoding and decoding strategies",
Section 2.1.5): one byte string per rule, a sequence of
``(window-gap, Δ rule-count, Δ antecedent-margin, Δ consequent-margin)``
entries in zigzag varints.  Window ids are strictly increasing so gaps
are small positive ints; counts of a surviving rule drift slowly so
deltas are near zero — the typical entry costs 4 bytes.

The archive supports two modes:

* **staged** — entries live in per-rule Python lists; appending windows
  is O(1) per entry (used during the offline build and by the
  incremental builder);
* **sealed** — entries are frozen into the byte encoding;
  :meth:`encoded_size_bytes` then reports the Figure 12 storage number.

Reads work in both modes (sealed reads decode on the fly and are
memoized per rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import (
    UnknownRuleError,
    UnknownWindowError,
    ValidationError,
)
from repro.core.storage.codec import Entry, decode_series, encode_series
from repro.data.periods import PeriodSpec
from repro.mining.rules import RuleId, ScoredRule


@dataclass(frozen=True)
class WindowMeasure:
    """A rule's measured values in one window, decoded from the archive."""

    window: int
    rule_count: int
    antecedent_count: int
    window_size: int
    consequent_count: int = 0

    @property
    def support(self) -> float:
        """Formula 1 value for this window (0.0 on an empty window)."""
        return self.rule_count / self.window_size if self.window_size else 0.0

    @property
    def confidence(self) -> float:
        """Formula 2 value for this window."""
        return self.rule_count / self.antecedent_count if self.antecedent_count else 0.0

    @property
    def lift(self) -> float:
        """Formula 3 value for this window (0.0 when undefined).

        Available because the archive keeps the consequent count too —
        the hook through which measures beyond support/confidence "can
        be plugged in" per the paper's foundation section.
        """
        denominator = self.antecedent_count * self.consequent_count
        if denominator == 0:
            return 0.0
        return self.rule_count * self.window_size / denominator


@dataclass(frozen=True)
class RolledUpMeasure:
    """Exact-or-bounded measures of a rule over a union of windows.

    When the rule has an archive entry in every requested window the
    values are exact.  Windows without an entry contribute an unknown
    count in ``[0, generation-threshold bound)``; the paper's roll-up
    approximation bound (Section 2.1.5, roll-up discussion) then widens
    ``support`` and ``confidence`` into the reported intervals.  The
    point estimates treat missing counts as zero (the rule was at most
    marginally present there).
    """

    rule_id: RuleId
    windows_present: Tuple[int, ...]
    windows_missing: Tuple[int, ...]
    rule_count: int
    antecedent_count: int
    total_size: int
    support_low: float
    support_high: float
    confidence_low: float
    confidence_high: float

    @property
    def support(self) -> float:
        """Point estimate (missing windows counted as zero)."""
        return self.rule_count / self.total_size if self.total_size else 0.0

    @property
    def confidence(self) -> float:
        """Point estimate (missing windows counted as zero)."""
        return (
            self.rule_count / self.antecedent_count if self.antecedent_count else 0.0
        )

    @property
    def is_exact(self) -> bool:
        """True when no requested window lacked an archive entry."""
        return not self.windows_missing


class TarArchive:
    """Compact store of every rule's per-window parameter counts."""

    def __init__(self) -> None:
        self._staged: Dict[RuleId, List[Entry]] = {}
        self._sealed: Dict[RuleId, bytes] = {}
        self._decode_cache: Dict[RuleId, List[Entry]] = {}
        self._window_sizes: List[int] = []
        # Per-window bound on the count of an unarchived itemset: an
        # itemset absent from window w was below the generation support
        # threshold there, i.e. count <= ceil(supp_g * n_w) - 1.
        self._missing_count_bounds: List[int] = []

    # ------------------------------------------------------------------
    # build-time API
    # ------------------------------------------------------------------
    @property
    def window_count(self) -> int:
        """Number of windows recorded so far."""
        return len(self._window_sizes)

    def begin_window(self, window_size: int, missing_count_bound: int) -> int:
        """Open the next window; returns its index.

        Args:
            window_size: ``|F(∅, D, T_i)|`` of the new window.
            missing_count_bound: exclusive upper bound on the count of
                any itemset *not* archived in this window (derived from
                the generation support threshold).
        """
        if window_size < 0 or missing_count_bound < 0:
            raise ValidationError("window size and bound must be >= 0")
        self._window_sizes.append(window_size)
        self._missing_count_bounds.append(missing_count_bound)
        return len(self._window_sizes) - 1

    def record(self, window: int, scored_rules: Iterable[ScoredRule]) -> int:
        """Archive one window's scored rules; returns entries written.

        Must target the most recently opened window (the evolving-data
        model appends monotonically).
        """
        if window != len(self._window_sizes) - 1:
            raise UnknownWindowError(
                f"can only record into the latest window "
                f"{len(self._window_sizes) - 1}, got {window}"
            )
        written = 0
        for scored in scored_rules:
            if scored.window_size != self._window_sizes[window]:
                raise ValidationError(
                    f"scored rule window size {scored.window_size} does not "
                    f"match archive window size {self._window_sizes[window]}"
                )
            if (
                scored.antecedent_count < scored.rule_count
                or scored.consequent_count < scored.rule_count
            ):
                raise ValidationError(
                    f"rule {scored.rule_id}: marginal counts "
                    f"({scored.antecedent_count}, {scored.consequent_count}) "
                    f"below the rule count {scored.rule_count}"
                )
            series = self._staged.get(scored.rule_id)
            if series is None:
                if scored.rule_id in self._sealed:
                    series = self._thaw(scored.rule_id)
                else:
                    series = []
                    self._staged[scored.rule_id] = series
            if series and series[-1][0] >= window:
                raise ValidationError(
                    f"rule {scored.rule_id} already recorded in window "
                    f"{series[-1][0]} >= {window}"
                )
            series.append(
                (
                    window,
                    scored.rule_count,
                    scored.antecedent_count,
                    scored.consequent_count,
                )
            )
            written += 1
        return written

    def _thaw(self, rule_id: RuleId) -> List[Entry]:
        """Reopen a sealed rule's series for appending."""
        series = list(self._decode(rule_id))
        del self._sealed[rule_id]
        self._decode_cache.pop(rule_id, None)
        self._staged[rule_id] = series
        return series

    def clone(self) -> "TarArchive":
        """An independent copy for copy-on-write snapshot publication.

        Recording into the clone can never disturb a reader of this
        archive: staged per-rule series are list-copied (appends go to
        the clone's lists), and — crucially — a :meth:`record` that
        :meth:`_thaw`\\ s a sealed rule deletes it from the *clone's*
        sealed dict only.  Sealed byte blobs are immutable and shared.
        The decode memo starts empty; it is a cache, not state.
        """
        copy = TarArchive()
        copy._staged = {
            rule_id: list(series) for rule_id, series in self._staged.items()
        }
        copy._sealed = dict(self._sealed)
        copy._window_sizes = list(self._window_sizes)
        copy._missing_count_bounds = list(self._missing_count_bounds)
        return copy

    def seal(self) -> None:
        """Freeze every staged series into its byte encoding."""
        for rule_id, series in self._staged.items():
            self._sealed[rule_id] = _encode_series(series)
        self._staged.clear()
        self._decode_cache.clear()

    # ------------------------------------------------------------------
    # read API
    # ------------------------------------------------------------------
    def __contains__(self, rule_id: RuleId) -> bool:
        return rule_id in self._staged or rule_id in self._sealed

    def __len__(self) -> int:
        return len(self._staged) + len(self._sealed)

    def rule_ids(self) -> Iterator[RuleId]:
        """All rule ids with at least one archived entry."""
        yield from self._staged
        yield from self._sealed

    def window_size(self, window: int) -> int:
        """``|F(∅, D, T_i)|`` for a recorded window."""
        self._check_window(window)
        return self._window_sizes[window]

    def missing_count_bound(self, window: int) -> int:
        """Exclusive bound on unarchived itemset counts in *window*."""
        self._check_window(window)
        return self._missing_count_bounds[window]

    def _entries(self, rule_id: RuleId) -> List[Entry]:
        staged = self._staged.get(rule_id)
        if staged is not None:
            return staged
        if rule_id in self._sealed:
            return self._decode(rule_id)
        raise UnknownRuleError(f"rule {rule_id} has no archived entries")

    def series_entries(self, rule_id: RuleId) -> List[Entry]:
        """One rule's decoded entries (the ``SeriesSource`` read surface).

        Together with :meth:`encoded_series`, :meth:`rule_ids`,
        ``__contains__`` and ``__len__`` this makes the archive a
        structural :class:`repro.core.storage.source.SeriesSource`, so
        callers written against the protocol work over both the
        in-memory archive and the mmap-backed sharded reader.
        """
        return self._entries(rule_id)

    def _decode(self, rule_id: RuleId) -> List[Entry]:
        cached = self._decode_cache.get(rule_id)
        if cached is None:
            cached = _decode_series(self._sealed[rule_id])
            self._decode_cache[rule_id] = cached
        return cached

    def series(self, rule_id: RuleId) -> List[WindowMeasure]:
        """The rule's full archived trajectory, oldest window first."""
        return [
            WindowMeasure(
                window=window,
                rule_count=rule_count,
                antecedent_count=antecedent_count,
                window_size=self._window_sizes[window],
                consequent_count=consequent_count,
            )
            for window, rule_count, antecedent_count, consequent_count
            in self._entries(rule_id)
        ]

    def measure_at(self, rule_id: RuleId, window: int) -> Optional[WindowMeasure]:
        """The rule's measures in one window, or ``None`` if unarchived there."""
        self._check_window(window)
        for entry in self._entries(rule_id):
            entry_window, rule_count, antecedent_count, consequent_count = entry
            if entry_window == window:
                return WindowMeasure(
                    window=window,
                    rule_count=rule_count,
                    antecedent_count=antecedent_count,
                    window_size=self._window_sizes[window],
                    consequent_count=consequent_count,
                )
            if entry_window > window:
                return None
        return None

    def windows_of(self, rule_id: RuleId) -> Tuple[int, ...]:
        """Windows in which the rule has archived entries."""
        return tuple(entry[0] for entry in self._entries(rule_id))

    # ------------------------------------------------------------------
    # roll-up
    # ------------------------------------------------------------------
    def rolled_up(self, rule_id: RuleId, spec: PeriodSpec) -> RolledUpMeasure:
        """Measures of a rule over the union of *spec*'s windows.

        Counts are summed across the windows where the rule is archived;
        the remaining windows contribute the approximation-bound
        intervals documented on :class:`RolledUpMeasure`.
        """
        wanted = set(spec)
        for window in wanted:
            self._check_window(window)
        present: List[int] = []
        rule_count = 0
        antecedent_count = 0
        for window, entry_rule_count, entry_antecedent_count, _ in self._entries(
            rule_id
        ):
            if window in wanted:
                present.append(window)
                rule_count += entry_rule_count
                antecedent_count += entry_antecedent_count
        missing = sorted(wanted - set(present))
        total_size = sum(self._window_sizes[w] for w in spec)
        missing_rule_max = sum(
            max(self._missing_count_bounds[w] - 1, 0) for w in missing
        )
        # In a missing window the antecedent may still be arbitrarily
        # frequent (only the full itemset was infrequent), so the
        # confidence lower bound lets the antecedent grow to the whole
        # window while adding no rule occurrences.
        missing_antecedent_max = sum(self._window_sizes[w] for w in missing)

        support_low = rule_count / total_size if total_size else 0.0
        support_high = (
            (rule_count + missing_rule_max) / total_size if total_size else 0.0
        )
        denominator_low = antecedent_count + missing_antecedent_max
        confidence_low = rule_count / denominator_low if denominator_low else 0.0
        numerator_high = rule_count + missing_rule_max
        # Antecedent count always >= rule count, so the highest possible
        # confidence adds the maximal missing rule occurrences to both.
        denominator_high = antecedent_count + missing_rule_max
        confidence_high = (
            numerator_high / denominator_high if denominator_high else 0.0
        )
        return RolledUpMeasure(
            rule_id=rule_id,
            windows_present=tuple(present),
            windows_missing=tuple(missing),
            rule_count=rule_count,
            antecedent_count=antecedent_count,
            total_size=total_size,
            support_low=support_low,
            support_high=min(support_high, 1.0),
            confidence_low=confidence_low,
            confidence_high=min(confidence_high, 1.0),
        )

    # ------------------------------------------------------------------
    # storage accounting (Figure 12)
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Total number of archived (rule, window) entries."""
        total = sum(len(series) for series in self._staged.values())
        total += sum(len(self._decode(rid)) for rid in self._sealed)
        return total

    def encoded_series(self, rule_id: RuleId) -> bytes:
        """The byte encoding of one rule's series.

        Sealed rules return their stored blob; staged rules are encoded
        on the fly.  Used by the persistence layer's callers and by the
        determinism tests, which compare builds at byte level.
        """
        blob = self._sealed.get(rule_id)
        if blob is not None:
            return blob
        staged = self._staged.get(rule_id)
        if staged is not None:
            return _encode_series(staged)
        raise UnknownRuleError(f"rule {rule_id} has no archived entries")

    def encoded_size_bytes(self) -> int:
        """Bytes used by the sealed encodings (plus staged estimate).

        Staged series are counted at their would-be encoded size so the
        number is meaningful before :meth:`seal` as well.
        """
        sealed = sum(len(blob) for blob in self._sealed.values())
        staged = sum(
            len(_encode_series(series)) for series in self._staged.values()
        )
        return sealed + staged

    def uncompressed_size_bytes(self) -> int:
        """Size of the naive representation the paper compares against:
        one (window id, support, confidence) record of 8-byte fields per
        rule per window."""
        return self.entry_count() * 3 * 8

    def _check_window(self, window: int) -> None:
        if not 0 <= window < len(self._window_sizes):
            raise UnknownWindowError(
                f"window {window} out of range [0, {len(self._window_sizes)})"
            )


# The series byte codec lives in repro.core.storage.codec (the v2
# container stores its output raw); these historical private names are
# kept for the persistence layer and the determinism tests.
_encode_series = encode_series
_decode_series = decode_series
