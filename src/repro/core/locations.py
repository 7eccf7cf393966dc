"""Temporal parametric locations in the Evolving Parameter Space.

Definition 9 of the paper associates every rule, per time window, with
its *temporal parametric location* — the point in the (support,
confidence) plane given by the rule's measured values in that window.
Rules with identical parameter values share one location (Lemma 2
guarantees rules at distinct locations are distinct).

Equality of parameter values must be *exact* for the space partitioning
to be sound, so locations are keyed by rational values
(``fractions.Fraction`` of the underlying integer counts), never by
floats.

Every EPS slice is built by the *count-native* grouping
(:func:`group_rows` + :func:`count_axes`) straight from the window's
archive rows: within one window the window size ``n`` is fixed, so a
rule's location is fully determined by the integer pair
``(rule_count, antecedent_count)`` — support is ``rule_count / n`` and
confidence is ``rule_count / antecedent_count``.  Grouping rows by that
raw pair and gcd-normalizing each distinct pair once gives the same
exact rational identity as :func:`group_by_location` without
constructing two ``Fraction`` objects and a validated :class:`Location`
per rule; ``Fraction`` values (and their validation) are built only for
the few distinct cut-grid coordinates.  The ``Fraction``-keyed functions
remain the reference implementation (property-tested equivalent) and
serve non-hot callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, Iterable, List, Tuple

from repro.common.errors import ValidationError
from repro.core.storage.writer import WindowEntry
from repro.mining.rules import RuleId, ScoredRule

#: Count-native location key: ``(rule_count, p, q)`` where ``p/q`` is
#: the gcd-normalized confidence ``rule_count / antecedent_count``.
#: With the window size fixed, support identity is rule-count identity
#: and confidence identity is normalized-pair identity, so the key is
#: exactly Definition 9's rational location identity.  (Keying on the
#: normalized pair rather than the raw antecedent count matters for
#: zero-count rules: ``0/3`` and ``0/7`` are the same confidence.)
CountLocation = Tuple[int, int, int]


@dataclass(frozen=True, order=True)
class Location:
    """One parametric location: exact (support, confidence) coordinates."""

    support: Fraction
    confidence: Fraction

    def __post_init__(self) -> None:
        for name, value in (("support", self.support), ("confidence", self.confidence)):
            if not 0 <= value <= 1:
                raise ValidationError(f"{name} must be in [0, 1], got {value}")

    @property
    def support_float(self) -> float:
        """Support as a float (display/benchmark convenience)."""
        return float(self.support)

    @property
    def confidence_float(self) -> float:
        """Confidence as a float (display/benchmark convenience)."""
        return float(self.confidence)

    def dominates(self, other: "Location") -> bool:
        """Definition 13's order: both coordinates less than or equal.

        The *dominating* location imposes the weaker thresholds, hence
        admits a superset of the rules (Lemma 4).
        """
        return self.support <= other.support and self.confidence <= other.confidence


def location_of(scored: ScoredRule) -> Location:
    """The exact parametric location of one scored rule."""
    if scored.window_size == 0:
        raise ValidationError("cannot locate a rule mined from an empty window")
    return Location(
        support=Fraction(scored.rule_count, scored.window_size),
        confidence=Fraction(scored.rule_count, scored.antecedent_count),
    )


def group_by_location(
    scored_rules: Iterable[ScoredRule],
) -> Dict[Location, List[RuleId]]:
    """Map each distinct location to the ids of the rules sitting on it.

    This is the Lemma 2 grouping: within one window a rule has exactly
    one location, and all rules on a location share exact parameter
    values.
    """
    groups: Dict[Location, List[RuleId]] = {}
    for scored in scored_rules:
        groups.setdefault(location_of(scored), []).append(scored.rule_id)
    for rule_ids in groups.values():
        rule_ids.sort()
    return groups


def distinct_axes(
    locations: Iterable[Location],
) -> Tuple[List[Fraction], List[Fraction]]:
    """Sorted distinct support and confidence values of the locations.

    These are the coordinates of the *cut locations* (Definition 12):
    the grid formed by projecting every location onto both axes.
    """
    supports = sorted({location.support for location in locations})
    confidences = sorted({location.confidence for location in locations})
    return supports, confidences


def group_rows(rows: Iterable[WindowEntry]) -> Dict[CountLocation, List[RuleId]]:
    """Count-native Lemma 2 grouping of one window's archive rows.

    *rows* are the window's ``(rule_id, rule_count, antecedent_count,
    consequent_count)`` rows, the archive's
    :meth:`~repro.core.archive.TarArchive.window_entries` shape.  Rows
    are bucketed by their raw ``(rule_count, antecedent_count)`` pair
    and each distinct pair is gcd-normalized once into its
    :data:`CountLocation` key, so the per-row cost is one dict access.
    Exactly :func:`group_by_location` under the key bijection
    (property-tested); rule ids ascend within each location.
    """
    by_pair: Dict[Tuple[int, int], List[RuleId]] = {}
    by_pair_get = by_pair.get
    for rule_id, rule_count, antecedent_count, _ in rows:
        pair = (rule_count, antecedent_count)
        bucket = by_pair_get(pair)
        if bucket is None:
            by_pair[pair] = [rule_id]
        else:
            bucket.append(rule_id)
    groups: Dict[CountLocation, List[RuleId]] = {}
    for (rule_count, antecedent_count), rule_ids in by_pair.items():
        if antecedent_count < 1:
            raise ValidationError(
                f"rule {rule_ids[0]}: confidence undefined for antecedent "
                f"count {antecedent_count}"
            )
        divisor = gcd(rule_count, antecedent_count)
        key = (rule_count, rule_count // divisor, antecedent_count // divisor)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = rule_ids
        else:
            # Only zero-count pairs meet here: 0/3 and 0/7 are one
            # confidence.
            bucket.extend(rule_ids)
    for rule_ids in groups.values():
        rule_ids.sort()
    return groups


@lru_cache(maxsize=1 << 16)
def _cached_fraction(numerator: int, denominator: int) -> Fraction:
    """Memoized ``Fraction`` construction for axis values.

    Consecutive windows share most of their distinct counts and
    confidence pairs, so the cache turns repeated gcd-normalizing
    constructions into dict hits across a build (and across builds).
    """
    return Fraction(numerator, denominator)


def _pair_float(pair: Tuple[int, int]) -> float:
    """Float sort key of a normalized confidence pair."""
    return pair[0] / pair[1]


def count_axes(
    window_size: int, groups: Iterable[CountLocation]
) -> Tuple[List[Fraction], List[Fraction], Dict[int, int], Dict[Tuple[int, int], int]]:
    """Distinct cut-grid axes of count-native location keys, with ranks.

    This is the distinct-value boundary where the exact ``Fraction``
    representation (and its ``[0, 1]`` validation) is materialized:
    thousands of scored rules collapse to hundreds of axis values, so
    the per-build ``Fraction`` cost becomes negligible.  Validation runs
    on the raw integers (``0 <= rule_count <= n``, ``0 <= p <= q``) and
    the confidence ordering is float-keyed with an exact integer
    cross-multiplication verification pass — the sort falls back to
    exact ``Fraction`` comparisons only if two distinct rationals
    collide in float space.

    Returns ``(supports, confidences, support_rank, confidence_rank)``:
    the sorted exact axes plus the rank of each distinct rule count /
    normalized confidence pair on them — everything
    :meth:`repro.core.regions.WindowSlice.from_rows` needs to place
    rows without touching ``Fraction`` again.
    """
    if window_size < 1 and groups:
        raise ValidationError("cannot locate a rule mined from an empty window")
    rule_counts = sorted({key[0] for key in groups})
    confidence_pairs = {(key[1], key[2]) for key in groups}
    for rule_count in rule_counts:
        if not 0 <= rule_count <= window_size:
            raise ValidationError(
                f"support must be in [0, 1], got {rule_count}/{window_size}"
            )
    for p, q in confidence_pairs:
        if q < 1 or not 0 <= p <= q:
            raise ValidationError(f"confidence must be in [0, 1], got {p}/{q}")
    sorted_pairs = sorted(confidence_pairs, key=_pair_float)
    for (p1, q1), (p2, q2) in zip(sorted_pairs, sorted_pairs[1:]):
        if p1 * q2 > p2 * q1:
            # Two distinct rationals tied in float space and came out in
            # the wrong exact order; redo the sort exactly.
            sorted_pairs.sort(key=lambda pair: Fraction(pair[0], pair[1]))
            break
    supports = [_cached_fraction(rule_count, window_size) for rule_count in rule_counts]
    confidences = [_cached_fraction(p, q) for p, q in sorted_pairs]
    support_rank = {rule_count: i for i, rule_count in enumerate(rule_counts)}
    confidence_rank = {pair: i for i, pair in enumerate(sorted_pairs)}
    return supports, confidences, support_rank, confidence_rank
