"""Query and result types of the TARA online explorer.

The paper's online phase supports several operation classes (Section
2.1.4/2.5): traditional mining with time specification, rule-trajectory
and parameter-recommendation queries (Q1/Q3), evolving ruleset
comparisons (Q2), content-based exploration (Q5) and trajectory
summarization (Q4).  This module defines the value objects those
operations accept and return; the logic lives in
:mod:`repro.core.explorer`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.core.archive import RolledUpMeasure, WindowMeasure
from repro.core.regions import ParameterSetting, StableRegion
from repro.core.storage.codec import Entry
from repro.data.items import ItemId
from repro.data.periods import PeriodSpec
from repro.mining.rules import Rule, RuleId


class MatchMode(enum.Enum):
    """How a multi-window comparison aggregates per-window differences.

    ``EXACT``  — a rule counts as *differing* only if it differs in
    every requested window (the paper's *exact match* mode).
    ``SINGLE`` — a rule counts as differing if it differs in at least
    one requested window (*single match*).
    """

    EXACT = "exact"
    SINGLE = "single"


# ----------------------------------------------------------------------
# Request types: the unified Q1-Q5 entry points.
#
# Every online operation is described by one frozen request dataclass
# and executed through :meth:`repro.core.explorer.TaraExplorer.execute`.
# Freezing makes requests hashable and safely
# shareable across threads; the serving layer never uses their raw
# float thresholds as cache identity — it canonicalizes each request to
# integer stable-region keys (:mod:`repro.service.keys`).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrajectoryQuery:
    """Q1 request: rules matching *setting* in *anchor_window*, tracked.

    ``spec`` is the set of windows to report values over; ``None`` means
    every window of the knowledge base at execution time (a
    *generation-scoped* default — the answer changes when new windows
    arrive).
    """

    setting: ParameterSetting
    anchor_window: int
    spec: Optional[PeriodSpec] = None


@dataclass(frozen=True)
class CompareQuery:
    """Q2 request: difference of two settings' rulesets over *spec*."""

    first: ParameterSetting
    second: ParameterSetting
    spec: Optional[PeriodSpec] = None
    mode: MatchMode = MatchMode.SINGLE


@dataclass(frozen=True)
class RecommendQuery:
    """Q3 request: the stable region enclosing *setting* in *window*.

    ``window=None`` means the latest window at execution time (a
    generation-scoped default).
    """

    setting: ParameterSetting
    window: Optional[int] = None


@dataclass(frozen=True)
class ContentQuery:
    """Q5 request: valid rules mentioning any of *items*, per window.

    ``items`` is normalized to a sorted, de-duplicated tuple so that two
    requests naming the same item set compare (and hash) equal.
    """

    setting: ParameterSetting
    items: Tuple[ItemId, ...]
    spec: Optional[PeriodSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(sorted(set(self.items))))


@dataclass(frozen=True)
class RollupQuery:
    """Roll-up request: mining over the merged period of *spec*.

    Not region-cacheable: the rolled-up answer thresholds the *merged*
    counts, so two settings inside the same per-window stable region can
    still differ — the serving layer always executes it fresh.
    """

    setting: ParameterSetting
    spec: PeriodSpec


#: Any request the explorer's ``execute`` dispatch accepts.
ExplorerQuery = Union[
    TrajectoryQuery, CompareQuery, RecommendQuery, ContentQuery, RollupQuery
]


@dataclass(frozen=True)
class MinedRule:
    """One rule in a mining answer, with the measures that qualified it."""

    rule_id: RuleId
    rule: Rule
    support: float
    confidence: float


@dataclass(frozen=True)
class RuleTrajectory:
    """Q1 answer element: a rule's archived counts across the spec's windows.

    The answer keeps the archive's integer counts, not measure objects:

    * ``entries`` — the rule's archive entries ``(window, rule count,
      antecedent count, consequent count)`` in the spec's windows,
      oldest window first.  A spec window without an entry is one where
      the rule was not archived (below generation thresholds there).
    * ``window_sizes`` — ``(window, |F(∅, D, T_w)|)`` for every window of
      the spec, window ascending.  The explorer shares one such tuple
      among all trajectories of an answer.

    Both are tuples of ints, so a cached trajectory is immutable and
    adds two collector-tracked objects (itself and ``entries``).  The
    wire encoder formats rows straight from these counts; in-process
    callers that want objects read :attr:`measures`.
    """

    rule_id: RuleId
    rule: Rule
    entries: Tuple[Entry, ...]
    window_sizes: Tuple[Tuple[int, int], ...]

    @property
    def measures(self) -> Mapping[int, Optional[WindowMeasure]]:
        """``{window: WindowMeasure or None}`` over the spec's windows.

        Read-only and built on every read from :attr:`entries` and
        :attr:`window_sizes` (``None`` where the rule was not archived);
        the served path never reads it.
        """
        sizes = dict(self.window_sizes)
        measures: Dict[int, Optional[WindowMeasure]] = dict.fromkeys(sizes)
        for window, rule_count, antecedent_count, consequent_count in self.entries:
            measures[window] = WindowMeasure(
                window=window,
                rule_count=rule_count,
                antecedent_count=antecedent_count,
                window_size=sizes[window],
                consequent_count=consequent_count,
            )
        return measures

    def present_windows(self) -> Tuple[int, ...]:
        """Windows (sorted) in which the rule had archived values."""
        return tuple(entry[0] for entry in self.entries)

    def support_series(self) -> List[float]:
        """Supports over present windows, in window order."""
        return [m.support for m in self.measures.values() if m is not None]

    def confidence_series(self) -> List[float]:
        """Confidences over present windows, in window order."""
        return [m.confidence for m in self.measures.values() if m is not None]


@dataclass(frozen=True)
class WindowDiff:
    """Per-window difference of two rulesets (Q2 building block)."""

    window: int
    only_first: Tuple[RuleId, ...]
    only_second: Tuple[RuleId, ...]
    common: Tuple[RuleId, ...]


@dataclass(frozen=True)
class ComparisonResult:
    """Q2 answer: differences between two settings over shared periods."""

    first: ParameterSetting
    second: ParameterSetting
    mode: MatchMode
    per_window: Tuple[WindowDiff, ...]
    only_first: Tuple[RuleId, ...]
    only_second: Tuple[RuleId, ...]

    @property
    def difference_size(self) -> int:
        """Total number of rules reported as differing."""
        return len(self.only_first) + len(self.only_second)


@dataclass(frozen=True)
class Recommendation:
    """Q3 answer: the enclosing stable region plus its axis neighbors.

    ``region`` tells the analyst how far each threshold can move without
    changing the answer; each entry of ``neighbors`` describes what
    happens one region further in that direction (key is the direction
    name, e.g. ``"looser_support"``).
    """

    window: int
    setting: ParameterSetting
    region: StableRegion
    # Mapping (not Dict): recommendations are cached frozen and shared
    # across concurrent readers, so the field must stay read-only.
    neighbors: Mapping[str, StableRegion]

    def ruleset_delta(self, direction: str) -> Optional[int]:
        """Ruleset-size change when crossing into *direction*'s region."""
        neighbor = self.neighbors.get(direction)
        if neighbor is None:
            return None
        return neighbor.ruleset_size - self.region.ruleset_size


@dataclass(frozen=True)
class RolledUpRule:
    """A rule qualified over a merged (rolled-up) period."""

    rule_id: RuleId
    rule: Rule
    measure: RolledUpMeasure


@dataclass(frozen=True)
class RollupAnswer:
    """Roll-up mining answer with the paper's approximation guarantee.

    ``certain`` rules satisfy the setting even under the pessimistic
    bounds; ``possible`` rules satisfy it only under the optimistic
    bounds.  When every candidate's archive series covers every
    requested window the two lists coincide and the answer is exact.
    """

    setting: ParameterSetting
    windows: Tuple[int, ...]
    certain: Tuple[RolledUpRule, ...]
    possible: Tuple[RolledUpRule, ...]
    max_support_error: float

    @property
    def is_exact(self) -> bool:
        """True when optimistic and pessimistic answers coincide."""
        certain_ids = {r.rule_id for r in self.certain}
        possible_ids = {r.rule_id for r in self.possible}
        return certain_ids == possible_ids
