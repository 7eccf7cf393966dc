"""Time-aware stable regions: the per-window parameter-space partition.

Definition 11 of the paper: within one time window, the (support,
confidence) plane splits into finitely many *stable regions* — maximal
boxes within which any parameter setting produces the identical ruleset.
Region boundaries are the distinct support/confidence values of the
window's parametric locations; the upper-right corner of each region is
its *cut location* (Definition 12).

:class:`WindowSlice` is one window's share of the EPS index.  It stores
the locations bucketed by support value (rows sorted by confidence), so

* finding the enclosing stable region of a setting is two binary
  searches, and
* collecting the ruleset of a setting — the union of the rules at every
  location the setting's cut location dominates (Lemma 4) — is a
  staircase scan over the dominated part of the grid.

A breadth-first traversal of the domination grid is provided as the
paper-literal alternative ("iterating over its dominating regions");
the staircase scan is the default because it touches only occupied
locations.  Both return identical rulesets (property-tested).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.errors import QueryError, ValidationError
from repro.core.locations import Location, count_axes, distinct_axes, group_rows
from repro.core.storage.writer import WindowEntry
from repro.data.items import ItemId
from repro.mining.rules import RuleCatalog, RuleId

#: Query values whose float-axis bisection is trusted without an exact
#: check: if the query is at least this far (in float space) from both
#: neighboring axis values, the float answer provably equals the exact
#: one.  The margin dominates the two error sources by orders of
#: magnitude — ``limit_denominator(10**12)`` moves a query by at most
#: ~1e-12 and rounding an axis value to float by at most ~1.2e-16 (axes
#: live in [0, 1]) — so only genuine boundary hits pay the ``Fraction``
#: construction.
_EXACT_CHECK_MARGIN = 1e-9

#: Denominator cap turning a float query value into an exact rational;
#: shared by every query-side conversion so the same float always maps
#: to the same rational.
_QUERY_DENOMINATOR_CAP = 10**12

#: Region rulesets one slice memoizes; a full memo is cleared and
#: refills with the regions asked next.  A steering analyst mostly
#: reuses the previous step's regions, so a small memo keeps most of
#: an unbounded memo's hits while a long-lived server's slices stay
#: bounded.
_REGION_MEMO_ENTRIES = 256


def _query_fraction(value: float) -> Fraction:
    """The exact rational a float query value stands for."""
    return Fraction(value).limit_denominator(_QUERY_DENOMINATOR_CAP)


def _axis_rank(axis: Sequence[Fraction], axis_float: Sequence[float], value: float) -> int:
    """``bisect_left(axis, _query_fraction(value))`` without the Fraction.

    Bisects the precomputed float image of the axis and only falls back
    to the exact rational comparison when *value* lands within
    :data:`_EXACT_CHECK_MARGIN` of a neighboring axis value.  Soundness:
    if both neighbors are farther than the margin, the exact axis values
    (within ~1.2e-16 of their float images) and the query's rational
    (within ~1e-12 of *value*) are strictly ordered the same way as
    their float counterparts, so the two bisections agree.
    """
    rank = bisect_left(axis_float, value)
    if rank < len(axis_float) and axis_float[rank] - value < _EXACT_CHECK_MARGIN:
        return bisect_left(axis, _query_fraction(value))
    if rank > 0 and value - axis_float[rank - 1] < _EXACT_CHECK_MARGIN:
        return bisect_left(axis, _query_fraction(value))
    return rank


@dataclass(frozen=True)
class ParameterSetting:
    """A user-chosen (minimum support, minimum confidence) pair."""

    min_support: float
    min_confidence: float

    def __post_init__(self) -> None:
        for name, value in (
            ("min_support", self.min_support),
            ("min_confidence", self.min_confidence),
        ):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"{name} must be a number, got {value!r}")
            if not 0.0 <= float(value) <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class StableRegion:
    """One time-aware stable region of a window's parameter space.

    ``support_floor``/``confidence_floor`` are the largest distinct
    values strictly below the cut (or the generation threshold when the
    cut is the smallest value): the region is the half-open box
    ``(support_floor, cut.support] x (confidence_floor, cut.confidence]``.
    An empty region (setting above every location) has ``cut is None``.
    """

    window: int
    cut: Optional[Location]
    support_floor: Fraction
    confidence_floor: Fraction
    ruleset_size: int

    @property
    def is_empty(self) -> bool:
        """True when no rules satisfy any setting inside this region."""
        return self.cut is None

    def contains(self, setting: ParameterSetting) -> bool:
        """True if *setting* falls inside this region's half-open box."""
        supp = _query_fraction(setting.min_support)
        conf = _query_fraction(setting.min_confidence)
        supp_ok = supp > self.support_floor and (
            self.cut is None or supp <= self.cut.support
        )
        conf_ok = conf > self.confidence_floor and (
            self.cut is None or conf <= self.cut.confidence
        )
        return supp_ok and conf_ok


class WindowSlice:
    """The EPS index slice of a single basic window.

    The constructor is the ``Fraction``-keyed reference; the builder
    and both loaders use :meth:`from_rows`.

    Args:
        window: basic window index this slice belongs to.
        groups: parametric location -> rule ids (Lemma 2 grouping).
        generation_setting: the offline thresholds the window was mined
            at; queries below them would be answered incompletely and
            are rejected.
        catalog: optional catalog holding every grouped rule; when
            given, each location additionally carries an inverted
            item -> rules index (the TARA-S variant enabling content
            queries, at extra build and merge cost).
    """

    window: int
    generation_setting: ParameterSetting
    location_count: int
    supports: List[Fraction]
    confidences: List[Fraction]
    _supports_float: List[float]
    _confidences_float: List[float]
    _generation_support: Fraction
    _generation_confidence: Fraction
    _rows: List[List[Tuple[int, Tuple[RuleId, ...]]]]
    _rule_count: int
    _region_rulesets: Dict[Tuple[int, int], Tuple[RuleId, ...]]
    _row_maps_cache: Optional[List[Dict[int, Tuple[RuleId, ...]]]]
    _item_index: Optional[List[List[Tuple[int, Dict[ItemId, Tuple[RuleId, ...]]]]]]

    def __init__(
        self,
        window: int,
        groups: Dict[Location, List[RuleId]],
        *,
        generation_setting: ParameterSetting,
        catalog: Optional[RuleCatalog] = None,
    ) -> None:
        supports, confidences = distinct_axes(groups)
        support_rank = {value: i for i, value in enumerate(supports)}
        confidence_rank = {value: i for i, value in enumerate(confidences)}
        entries = [
            (
                support_rank[location.support],
                confidence_rank[location.confidence],
                tuple(rule_ids),
            )
            for location, rule_ids in groups.items()
        ]
        self._setup(
            window, generation_setting, supports, confidences, entries, catalog
        )

    @classmethod
    def from_rows(
        cls,
        window: int,
        window_size: int,
        rows: Iterable[WindowEntry],
        *,
        generation_setting: ParameterSetting,
        catalog: Optional[RuleCatalog] = None,
    ) -> "WindowSlice":
        """Build a slice from one window's archive rows.

        *rows* are ``(rule_id, rule_count, antecedent_count,
        consequent_count)`` tuples, the
        :meth:`~repro.core.archive.TarArchive.window_entries` shape that
        the builder, the lazy v2 first touch and the v1 loader all hold.
        The Lemma 2 grouping and the axes come from
        :func:`~repro.core.locations.group_rows` and
        :func:`~repro.core.locations.count_axes`, so no ``Fraction``,
        ``Location`` or scored rule is made per row.  With *catalog*,
        each location also gets the TARA-S item index.  Produces a slice
        identical to ``WindowSlice(window, group_by_location(scored),
        ...)`` (property-tested; the cross-miner fingerprint gate of
        ``repro bench`` covers it too).
        """
        groups = group_rows(rows)
        supports, confidences, support_rank, confidence_rank = count_axes(
            window_size, groups
        )
        entries = [
            (support_rank[rule_count], confidence_rank[(p, q)], tuple(rule_ids))
            for (rule_count, p, q), rule_ids in groups.items()
        ]
        window_slice = cls.__new__(cls)
        window_slice._setup(
            window, generation_setting, supports, confidences, entries, catalog
        )
        return window_slice

    def _setup(
        self,
        window: int,
        generation_setting: ParameterSetting,
        supports: List[Fraction],
        confidences: List[Fraction],
        entries: List[Tuple[int, int, Tuple[RuleId, ...]]],
        catalog: Optional[RuleCatalog],
    ) -> None:
        """Shared constructor core: place ``(si, ci, rule_ids)`` entries."""
        self.window = window
        self.generation_setting = generation_setting
        self.location_count = len(entries)
        self.supports = supports
        self.confidences = confidences
        # Float images of the exact axes: the bisection in _cut_ranks
        # runs on these, with the exact values only consulted at
        # boundary hits (see _axis_rank).
        self._supports_float = [float(value) for value in supports]
        self._confidences_float = [float(value) for value in confidences]
        self._generation_support = _query_fraction(generation_setting.min_support)
        self._generation_confidence = _query_fraction(
            generation_setting.min_confidence
        )

        # rows[si] = sorted list of (confidence rank, rule-id tuple)
        self._rows = [[] for _ in supports]
        self._rule_count = 0
        for si, ci, rule_ids in entries:
            self._rows[si].append((ci, rule_ids))
            self._rule_count += len(rule_ids)
        for row in self._rows:
            row.sort()

        # Per-region ruleset memo: cut ranks -> sorted rule-id tuple.
        # Every setting inside one stable region shares the entry (the
        # paper's equivalence), so repeated queries cost one dict hit.
        self._region_rulesets = {}
        self._row_maps_cache = None

        # TARA-S: per-location inverted item index, read from each
        # rule's antecedent and consequent in the catalog.  The sides
        # are disjoint, so a rule is listed once per item it mentions
        # and no union of the two is made.
        self._item_index = None
        if catalog is not None:
            rule_of = catalog.get
            self._item_index = []
            for row in self._rows:
                indexed_row: List[Tuple[int, Dict[ItemId, Tuple[RuleId, ...]]]] = []
                for ci, row_rule_ids in row:
                    inverted: Dict[ItemId, List[RuleId]] = {}
                    for rule_id in row_rule_ids:
                        rule = rule_of(rule_id)
                        for side in (rule.antecedent, rule.consequent):
                            for item in side:
                                inverted.setdefault(item, []).append(rule_id)
                    indexed_row.append(
                        (ci, {item: tuple(ids) for item, ids in inverted.items()})
                    )
                self._item_index.append(indexed_row)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def rule_count(self) -> int:
        """Number of (rule, location) pairs indexed in this window."""
        return self._rule_count

    @property
    def has_item_index(self) -> bool:
        """True when built as the TARA-S variant."""
        return self._item_index is not None

    def locations(self) -> Iterator[Tuple[Location, Tuple[RuleId, ...]]]:
        """Iterate every occupied location with its rules."""
        for si, row in enumerate(self._rows):
            for ci, rule_ids in row:
                yield (
                    Location(self.supports[si], self.confidences[ci]),
                    rule_ids,
                )

    # ------------------------------------------------------------------
    # region identification
    # ------------------------------------------------------------------
    def _cut_ranks(self, setting: ParameterSetting) -> Tuple[int, int]:
        """Grid ranks of the setting's cut location (may be one past end).

        Float bisection over the precomputed axis images; the exact
        rational comparison (two ``Fraction`` constructions in the old
        implementation, on *every* query) now only runs when the setting
        lands within :data:`_EXACT_CHECK_MARGIN` of an axis value.
        """
        self._check_setting(setting)
        return (
            _axis_rank(self.supports, self._supports_float, setting.min_support),
            _axis_rank(
                self.confidences, self._confidences_float, setting.min_confidence
            ),
        )

    def _check_setting(self, setting: ParameterSetting) -> None:
        gen = self.generation_setting
        if (
            setting.min_support < gen.min_support
            or setting.min_confidence < gen.min_confidence
        ):
            raise QueryError(
                f"setting {setting} lies below the generation thresholds "
                f"({gen.min_support}, {gen.min_confidence}); the index only "
                "covers the space above them"
            )

    def region_ranks(self, setting: ParameterSetting) -> Tuple[int, int]:
        """Grid ranks ``(si, ci)`` of the stable region containing *setting*.

        The ranks index the distinct support/confidence axes; a rank one
        past the end of an axis denotes the empty region above every
        location.  Two settings share both ranks iff they lie in the same
        time-aware stable region of this window — the integer identity
        the online serving layer keys its cache on (never raw floats).
        """
        return self._cut_ranks(setting)

    def region_id(self, setting: ParameterSetting) -> int:
        """The enclosing stable region as one canonical integer.

        Encodes :meth:`region_ranks` as ``si * (|confidences| + 1) + ci``
        (the ``+ 1`` accommodates the one-past-end rank of the empty
        region), giving every stable region of this window a distinct,
        stable, float-free id.  Ids are only meaningful within one
        window; cross-window cache keys must pair them with the window
        index.
        """
        si, ci = self._cut_ranks(setting)
        return si * (len(self.confidences) + 1) + ci

    def region_for(self, setting: ParameterSetting) -> StableRegion:
        """The stable region containing *setting* (Q3's primitive).

        The region's cut location is the smallest grid point whose both
        coordinates are >= the setting; its floors are the next smaller
        distinct values (or the generation thresholds).
        """
        si, ci = self._cut_ranks(setting)
        return self.region_at_ranks(si, ci)

    def region_at_ranks(self, si: int, ci: int) -> StableRegion:
        """The stable region with cut ranks ``(si, ci)``, rank-natively.

        Ranks one past the end of an axis denote the empty region above
        every location; anything outside ``[0, len(axis)]`` is rejected.
        This is :meth:`region_for` with the float-to-rank resolution
        already done — neighbor enumeration uses it directly instead of
        round-tripping axis values through float probe settings.
        """
        if not 0 <= si <= len(self.supports) or not 0 <= ci <= len(self.confidences):
            raise QueryError(
                f"cut ranks ({si}, {ci}) outside the {len(self.supports)} x "
                f"{len(self.confidences)} cut grid of window {self.window}"
            )
        support_floor = self.supports[si - 1] if si > 0 else self._generation_support
        confidence_floor = (
            self.confidences[ci - 1] if ci > 0 else self._generation_confidence
        )
        if si >= len(self.supports) or ci >= len(self.confidences):
            return StableRegion(
                window=self.window,
                cut=None,
                support_floor=support_floor,
                confidence_floor=confidence_floor,
                ruleset_size=0,
            )
        return StableRegion(
            window=self.window,
            cut=Location(self.supports[si], self.confidences[ci]),
            support_floor=support_floor,
            confidence_floor=confidence_floor,
            ruleset_size=self._ruleset_size(si, ci),
        )

    def _ruleset_size(self, si: int, ci: int) -> int:
        """``len(ruleset_for_region(si, ci))`` without building the ruleset.

        Counts the rules at each dominated location (a rule sits at one
        location per window), so neither a sorted tuple nor a memo entry
        is made.
        """
        return sum(len(ids) for _, ids in self._iter_dominated_rules(si, ci))

    # ------------------------------------------------------------------
    # ruleset collection
    # ------------------------------------------------------------------
    def _iter_dominated(self, si: int, ci: int) -> Iterator[Tuple[int, int]]:
        """Grid coordinates of occupied locations dominated by rank (si, ci)."""
        for row_index in range(si, len(self._rows)):
            row = self._rows[row_index]
            start = bisect_left(row, (ci, ()))
            for position in range(start, len(row)):
                yield row_index, position

    def _iter_dominated_rules(
        self, si: int, ci: int
    ) -> Iterator[Tuple[Tuple[int, int], Tuple[RuleId, ...]]]:
        for row_index, position in self._iter_dominated(si, ci):
            yield (row_index, position), self._rows[row_index][position][1]

    def ruleset_for_region(self, si: int, ci: int) -> Tuple[RuleId, ...]:
        """Sorted ruleset of the stable region with cut ranks ``(si, ci)``.

        Memoized per region: the first request pays the staircase scan,
        every later request — from *any* setting inside the region — is
        a dict hit while the entry is held.  The memo holds at most
        :data:`_REGION_MEMO_ENTRIES` regions and is cleared when full.
        It takes no lock: a dict's get, set and clear are each atomic,
        it only caches computed tuples, and a racing duplicate
        computation or a clear that drops another thread's fresh entry
        only costs a rescan.
        """
        key = (si, ci)
        memo = self._region_rulesets
        cached = memo.get(key)
        if cached is None:
            collected: List[RuleId] = []
            for _, rule_ids in self._iter_dominated_rules(si, ci):
                collected.extend(rule_ids)
            collected.sort()
            cached = tuple(collected)
            if len(memo) >= _REGION_MEMO_ENTRIES:
                memo.clear()
            memo[key] = cached
        return cached

    def collect(self, setting: ParameterSetting) -> List[RuleId]:
        """All rules valid at *setting* in this window (staircase scan).

        This is the TARA answer to a traditional mining request: a pure
        index lookup, no re-derivation.  Resolves through the stable
        region's memoized ruleset (:meth:`ruleset_for_region`), so every
        setting in one region shares a single scan.
        """
        si, ci = self._cut_ranks(setting)
        return list(self.ruleset_for_region(si, ci))

    def _row_maps(self) -> List[Dict[int, Tuple[RuleId, ...]]]:
        """Cached dict view of each row (confidence rank -> rule ids)."""
        cached = self._row_maps_cache
        if cached is None:
            cached = [dict(row) for row in self._rows]
            self._row_maps_cache = cached
        return cached

    def collect_bfs(self, setting: ParameterSetting) -> List[RuleId]:
        """Same ruleset via breadth-first walk of the domination grid.

        Paper-literal strategy: start at the query's region and visit
        every region it dominates through the (si+1, ci) / (si, ci+1)
        neighbor edges.  Kept for the ablation benchmark.
        """
        si, ci = self._cut_ranks(setting)
        result: List[RuleId] = []
        seen: Set[Tuple[int, int]] = set()
        frontier: List[Tuple[int, int]] = [(si, ci)]
        row_maps = self._row_maps()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            row_index, conf_index = node
            if row_index >= len(self.supports) or conf_index >= len(self.confidences):
                continue
            rule_ids = row_maps[row_index].get(conf_index)
            if rule_ids:
                result.extend(rule_ids)
            frontier.append((row_index + 1, conf_index))
            frontier.append((row_index, conf_index + 1))
        result.sort()
        return result

    def collect_items(
        self, setting: ParameterSetting, items: Sequence[ItemId]
    ) -> List[RuleId]:
        """Q5 content query: valid rules mentioning *any* of *items*.

        Requires the TARA-S item index; merges the per-location inverted
        indexes of every dominated location.
        """
        if self._item_index is None:
            raise QueryError(
                "content queries need the TARA-S item index "
                "(build with build_item_index=True)"
            )
        si, ci = self._cut_ranks(setting)
        wanted = set(items)
        result: Set[RuleId] = set()
        for row_index in range(si, len(self._rows)):
            row = self._rows[row_index]
            start = bisect_left(row, (ci, ()))
            indexed_row = self._item_index[row_index]
            for position in range(start, len(row)):
                inverted = indexed_row[position][1]
                for item in wanted:
                    ids = inverted.get(item)
                    if ids:
                        result.update(ids)
        return sorted(result)

    # ------------------------------------------------------------------
    # recommendation support
    # ------------------------------------------------------------------
    def neighbor_regions(
        self, setting: ParameterSetting
    ) -> Dict[str, StableRegion]:
        """Adjacent stable regions in the four axis directions.

        Used by parameter recommendation: each neighbor tells the
        analyst what changes if they loosen/tighten one threshold past
        the region boundary.  Directions without a neighbor (already at
        the edge of the indexed space) are omitted.
        """
        si, ci = self._cut_ranks(setting)
        neighbors: Dict[str, StableRegion] = {}
        # Rank-native: step directly on the cut grid.  The previous
        # implementation round-tripped exact axis values through float
        # probe settings (with a +1e-9 nudge past the last value), which
        # could resolve to the wrong region when adjacent axis values
        # collide under float rounding.
        if si > 0:
            neighbors["looser_support"] = self.region_at_ranks(si - 1, ci)
        if si + 1 <= len(self.supports):
            neighbors["tighter_support"] = self.region_at_ranks(si + 1, ci)
        if ci > 0:
            neighbors["looser_confidence"] = self.region_at_ranks(si, ci - 1)
        if ci + 1 <= len(self.confidences):
            neighbors["tighter_confidence"] = self.region_at_ranks(si, ci + 1)
        return neighbors
