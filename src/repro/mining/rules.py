"""Association rules, the rule catalog, and rule derivation.

A temporal association rule (Definition 1) is ``X ⇒ Y`` with disjoint
antecedent/consequent plus the time period it was derived from.  Rule
*identity* is time-independent — the same ``X ⇒ Y`` observed in two
windows is one rule with two parametric locations — so the library
interns each distinct (antecedent, consequent) pair once in a
:class:`RuleCatalog` and refers to it everywhere by a dense integer id.
That id is what the TAR Archive and the EPS index store.

Rule derivation follows ap-genrules (Agrawal & Srikant): for each
frequent itemset, consequents grow level-wise and a consequent is pruned
as soon as its confidence drops below threshold, which is sound because
moving items from the antecedent to the consequent can only lower
confidence.

The derivation loop is count-native: for every itemset the catalog
memoizes a *split plan* — the full level/lex enumeration of consequent
candidates with their precomputed antecedents and immediate-subset
dependencies — so an itemset re-appearing in a later window replays the
plan against that window's counts instead of re-running ap-genrules
(no per-window ``set``/``tuple`` rebuilding, no apriori-gen joins).
Rules are interned by tuple key; the :class:`Rule` object is
constructed and validated once, on first intern, and the catalog's
canonical instance is reused for every later window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.common.errors import UnknownRuleError, ValidationError
from repro.common.validation import check_fraction
from repro.data.items import ItemVocabulary, Itemset, canonical_itemset, itemset_union
from repro.mining.itemsets import FrequentItemsets

RuleId = int


@dataclass(frozen=True)
class Rule:
    """An association rule ``antecedent ⇒ consequent`` (canonical itemsets)."""

    antecedent: Itemset
    consequent: Itemset

    def __post_init__(self) -> None:
        if not self.antecedent or not self.consequent:
            raise ValidationError("rule sides must be non-empty")
        if not set(self.antecedent).isdisjoint(self.consequent):
            raise ValidationError(
                f"rule sides overlap: {self.antecedent} ⇒ {self.consequent}"
            )

    @property
    def items(self) -> Itemset:
        """The union ``X ∪ Y`` whose support defines the rule's support."""
        return itemset_union(self.antecedent, self.consequent)

    def format(self, vocabulary: Optional[ItemVocabulary] = None) -> str:
        """Render the rule, optionally translating ids back to names."""

        def side(itemset: Itemset) -> str:
            if vocabulary is None:
                return "{" + ", ".join(str(i) for i in itemset) + "}"
            return "{" + ", ".join(vocabulary.decode(itemset)) + "}"

        return f"{side(self.antecedent)} => {side(self.consequent)}"


class ScoredRule(NamedTuple):
    """A rule with the parameter values measured in one window.

    Carries the raw counts (rule itemset, antecedent, consequent,
    window size) so every registered measure — not just support and
    confidence — is reconstructible downstream.

    A ``NamedTuple`` rather than a frozen dataclass: the offline build
    creates one instance per scored rule per window (tens of thousands
    per build), and tuple construction is several times cheaper than a
    frozen dataclass ``__init__`` while keeping the same immutability
    and field access.
    """

    rule_id: RuleId
    rule: Rule
    support: float
    confidence: float
    rule_count: int
    antecedent_count: int
    window_size: int
    consequent_count: int = 0

    @property
    def lift(self) -> float:
        """Formula 3 from the carried counts (0.0 when undefined)."""
        denominator = self.antecedent_count * self.consequent_count
        if denominator == 0:
            return 0.0
        return self.rule_count * self.window_size / denominator


#: One ap-genrules candidate of an itemset's memoized derivation plan:
#: the 4-slot list ``[antecedent, consequent, dependencies, interned]``.
#: ``dependencies`` holds the previous-level positions of the
#: consequent's immediate subsets (all of which must have survived for
#: the candidate to be considered); ``interned`` starts as ``None`` and
#: caches the ``(rule_id, Rule)`` pair once the split first passes the
#: confidence threshold, so a replay in a later window touches no
#: interning dict at all (:meth:`RuleCatalog.rollback` resets it when it
#: forgets that id).  A plain list rather than a slotted class:
#: plans materialize one entry per consequent subset per distinct
#: itemset, and a list literal plus a one-step unpack in the replay
#: loop beats a Python-level ``__init__`` and four attribute loads.
PlannedSplit = List[Any]
SplitPlan = List[List[PlannedSplit]]
_SplitTemplate = Tuple[
    Tuple[Tuple[Callable[[Itemset], Itemset], Callable[[Itemset], Itemset], Tuple[int, ...]], ...],
    ...,
]

#: Itemsets larger than this fall back to the plan-free derivation path:
#: a plan enumerates all 2^k consequent subsets, which the confidence
#: pruning of the direct search usually never visits for deep itemsets.
PLAN_SIZE_CAP = 12


def _tuple_getter(indices: Tuple[int, ...]) -> Callable[[Itemset], Itemset]:
    """A callable extracting *indices* from an itemset as a tuple.

    ``operator.itemgetter`` is the C-speed path but returns a bare item
    for a single index, so size-1 sides get a dedicated closure.
    """
    if len(indices) == 1:
        index = indices[0]
        return lambda items: (items[index],)
    getter = itemgetter(*indices)
    return cast("Callable[[Itemset], Itemset]", getter)


# Split templates are a function of itemset *size* alone: positions of
# each consequent's items, positions of the complementary antecedent,
# and the previous-level dependency slots.  One template per size serves
# every itemset of that size, so the per-itemset plan materialization is
# a row of itemgetter calls.
_SPLIT_TEMPLATES: Dict[int, _SplitTemplate] = {}


def _split_template(size: int) -> _SplitTemplate:
    template = _SPLIT_TEMPLATES.get(size)
    if template is not None:
        return template
    levels: List[Tuple[Tuple[Callable[[Itemset], Itemset], Callable[[Itemset], Itemset], Tuple[int, ...]], ...]] = []
    previous_positions: Dict[Tuple[int, ...], int] = {}
    for level in range(1, size):
        entries: List[
            Tuple[Callable[[Itemset], Itemset], Callable[[Itemset], Itemset], Tuple[int, ...]]
        ] = []
        positions: Dict[Tuple[int, ...], int] = {}
        for position, chosen in enumerate(combinations(range(size), level)):
            chosen_set = set(chosen)
            antecedent_indices = tuple(
                i for i in range(size) if i not in chosen_set
            )
            dependencies = (
                tuple(
                    previous_positions[chosen[:drop] + chosen[drop + 1 :]]
                    for drop in range(level)
                )
                if level > 1
                else ()
            )
            positions[chosen] = position
            entries.append(
                (_tuple_getter(antecedent_indices), _tuple_getter(chosen), dependencies)
            )
        levels.append(tuple(entries))
        previous_positions = positions
    template = tuple(levels)
    _SPLIT_TEMPLATES[size] = template
    return template


def _build_split_plan(itemset: Itemset) -> SplitPlan:
    """Materialize the ap-genrules enumeration structure of one itemset.

    Level ``l`` lists every ``l``-item consequent in lexicographic
    order — exactly the order the level-wise search visits candidates
    in — with its antecedent and the previous-level positions of its
    immediate subsets.  Replaying the plan with per-window counts
    reproduces ap-genrules bit-for-bit: a candidate is *considered* iff
    all its immediate subsets survived (the apriori-gen join + subset
    check), and *survives* iff it is considered and meets the
    confidence threshold.
    """
    return [
        [
            [antecedent_of(itemset), consequent_of(itemset), dependencies, None]
            for antecedent_of, consequent_of, dependencies in level
        ]
        for level in _split_template(len(itemset))
    ]


class RuleCatalog:
    """Interning table assigning a dense id to each distinct rule.

    Shared by all windows of one knowledge base: a rule keeps its id for
    its entire lifetime across the evolving dataset, which is what lets
    the archive store one compact series per rule.  It also owns the
    derivation memo (:meth:`split_plan`): plans are a property of the
    itemset alone, so sharing the catalog across windows lets every
    re-appearance of an itemset replay its plan instead of re-running
    ap-genrules.

    Snapshot publication shares one catalog's state between views.
    The rule list and key table are append-only and every :meth:`clone`
    shares them; a view reads them through its own *bound*, the number
    of rules it has seen, so ``len``, iteration, :meth:`get`,
    :meth:`find` and :meth:`id_of` never show a rule a later view
    interned.  Only the newest view interns, and the split-plan memo is
    its scratch; interning through an older view raises.
    :meth:`rollback` on a predecessor undoes a successor that will
    never be published: the shared list and key table shrink back to
    the predecessor's bound, and memoized splits forget rule ids past
    it.
    """

    def __init__(self) -> None:
        self._rule_to_id: Dict[Tuple[Itemset, Itemset], RuleId] = {}
        self._rules: List[Rule] = []
        self._split_plans: Dict[Itemset, SplitPlan] = {}
        self._bound = 0

    def __len__(self) -> int:
        return self._bound

    def __iter__(self) -> Iterator[Rule]:
        return islice(self._rules, self._bound)

    def clone(self) -> "RuleCatalog":
        """A view for a successor snapshot, in O(1).

        It shares the rule list, key table and split-plan memo, and
        starts at this view's bound; what it interns is invisible here.
        """
        view = RuleCatalog()
        view._rule_to_id = self._rule_to_id
        view._rules = self._rules
        view._split_plans = self._split_plans
        view._bound = self._bound
        return view

    def rollback(self) -> None:
        """Forget every rule interned past this view's bound.

        For a publisher whose successor failed mid-build: the next
        successor, cloned from this view again, reuses the same ids.
        O(rules interned by the failed successor + memoized splits).
        """
        bound = self._bound
        if len(self._rules) == bound:
            return
        for rule in self._rules[bound:]:
            del self._rule_to_id[(rule.antecedent, rule.consequent)]
        del self._rules[bound:]
        for plan in self._split_plans.values():
            for level in plan:
                for split in level:
                    interned = split[3]
                    if interned is not None and interned[0] >= bound:
                        split[3] = None

    def intern(self, rule: Rule) -> RuleId:
        """Return the id of *rule*, assigning the next id if unseen."""
        key = (rule.antecedent, rule.consequent)
        existing = self._rule_to_id.get(key)
        if existing is not None and existing < self._bound:
            return existing
        return self._append(key, rule)[0]

    def intern_parts(self, antecedent: Itemset, consequent: Itemset) -> Tuple[RuleId, Rule]:
        """Intern by tuple key; construct the :class:`Rule` only on a miss.

        The hot-path twin of :meth:`intern`: a rule re-derived in a
        later window costs one dict hit and returns the catalog's
        canonical (already validated) instance instead of building and
        re-validating a fresh ``Rule``.
        """
        key = (antecedent, consequent)
        existing = self._rule_to_id.get(key)
        if existing is not None and existing < self._bound:
            return existing, self._rules[existing]
        return self._append(key, Rule(antecedent, consequent))

    def _append(self, key: Tuple[Itemset, Itemset], rule: Rule) -> Tuple[RuleId, Rule]:
        rule_id = self._bound
        if rule_id != len(self._rules):
            raise ValidationError(
                f"cannot intern through a catalog view of {rule_id} rules: "
                f"a later view has grown the shared list to {len(self._rules)}"
            )
        self._rule_to_id[key] = rule_id
        self._rules.append(rule)
        self._bound = rule_id + 1
        return rule_id, rule

    def split_plan(self, itemset: Itemset) -> Optional[SplitPlan]:
        """The memoized derivation plan of *itemset* (see module docstring).

        Returns ``None`` for itemsets above :data:`PLAN_SIZE_CAP`, whose
        full subset enumeration would dwarf the pruned direct search.
        """
        plan = self._split_plans.get(itemset)
        if plan is None:
            if len(itemset) > PLAN_SIZE_CAP:
                return None
            plan = _build_split_plan(itemset)
            self._split_plans[itemset] = plan
        return plan

    def id_of(self, rule: Rule) -> RuleId:
        """Id of an already-interned rule; raises if never seen."""
        rule_id = self.find(rule.antecedent, rule.consequent)
        if rule_id is None:
            raise UnknownRuleError(f"rule {rule} was never interned")
        return rule_id

    def get(self, rule_id: RuleId) -> Rule:
        """The rule interned under *rule_id*; raises for unknown ids."""
        if 0 <= rule_id < self._bound:
            return self._rules[rule_id]
        raise UnknownRuleError(f"unknown rule id {rule_id}")

    def find(
        self, antecedent: Sequence[int], consequent: Sequence[int]
    ) -> Optional[RuleId]:
        """Id for the given sides, or ``None`` if the rule was never seen."""
        key = (canonical_itemset(antecedent), canonical_itemset(consequent))
        rule_id = self._rule_to_id.get(key)
        if rule_id is None or rule_id >= self._bound:
            return None
        return rule_id


def derive_rules(
    itemsets: FrequentItemsets,
    min_confidence: float,
    *,
    catalog: Optional[RuleCatalog] = None,
) -> List[ScoredRule]:
    """Derive all rules meeting *min_confidence* from frequent itemsets.

    Every frequent itemset ``Z`` (|Z| >= 2) is split into ``X ⇒ Z \\ X``;
    supports come from the itemset counts, so the result is exact with
    respect to the miner that produced *itemsets*.

    Itemsets are processed in canonical (sorted-tuple) order, so the ids
    a shared catalog assigns do not depend on which miner produced
    *itemsets* — the property the cross-miner fingerprint gate of
    ``repro bench`` enforces.  Count lookups ride on the mining kernels'
    canonical prefix-class layout: every key in ``itemsets.counts`` is a
    sorted tuple and every antecedent/consequent built here is one too,
    so subsets are looked up directly without re-canonicalizing (no
    re-sort, no fresh tuple, one hash per lookup).

    The pass is fused and count-native: per itemset the catalog's
    memoized split plan is replayed against this window's counts
    (:meth:`RuleCatalog.split_plan`), and every surviving split interns
    by tuple key (:meth:`RuleCatalog.intern_parts`) — a ``Rule`` is
    constructed and validated only the first time the knowledge base
    ever sees it.

    Args:
        itemsets: mined frequent itemsets with counts.
        min_confidence: fractional threshold in ``[0, 1]``.
        catalog: rule catalog to intern into (a fresh one when omitted).

    Returns:
        One :class:`ScoredRule` per derived rule, in catalog-id order.
    """
    check_fraction(min_confidence, "min_confidence")
    if catalog is None:
        catalog = RuleCatalog()
    results: List[ScoredRule] = []
    n = itemsets.transaction_count
    counts = itemsets.counts
    counts_get = counts.get
    intern_parts = catalog.intern_parts
    append = results.append
    scored_rule = ScoredRule

    for itemset, itemset_count in sorted(counts.items()):
        if len(itemset) < 2:
            continue
        support = itemset_count / n if n else 0.0
        plan = catalog.split_plan(itemset)
        if plan is None:
            _derive_itemset_levelwise(
                itemset, itemset_count, support, counts, n,
                min_confidence, catalog, results,
            )
            continue
        # Replay the memoized plan: same visit order, same pruning, no
        # per-window set/tuple construction, and — after the first
        # window that derived a split — no interning dict either.
        alive_previous: List[bool] = []
        for level in plan:
            alive = [False] * len(level)
            any_alive = False
            for position, split in enumerate(level):
                antecedent, consequent, dependencies, interned = split
                for dependency in dependencies:
                    if not alive_previous[dependency]:
                        break
                else:
                    antecedent_count = counts_get(antecedent, 0)
                    if antecedent_count == 0:
                        # Cannot happen for a correct miner (downward
                        # closure) but guard against inconsistent inputs.
                        continue
                    confidence = itemset_count / antecedent_count
                    if confidence < min_confidence:
                        continue
                    alive[position] = True
                    any_alive = True
                    if interned is None:
                        interned = intern_parts(antecedent, consequent)
                        split[3] = interned
                    rule_id, rule = interned
                    # Positional construction: field order is pinned by
                    # the NamedTuple definition above.
                    append(
                        scored_rule(
                            rule_id,
                            rule,
                            support,
                            confidence,
                            itemset_count,
                            antecedent_count,
                            n,
                            counts_get(consequent, 0),
                        )
                    )
            if not any_alive:
                break
            alive_previous = alive
    # rule_id is the first ScoredRule field; itemgetter keeps the final
    # catalog-id ordering sort entirely in C.
    results.sort(key=itemgetter(0))
    return results


def _derive_itemset_levelwise(
    itemset: Itemset,
    itemset_count: int,
    support: float,
    counts: Dict[Itemset, int],
    n: int,
    min_confidence: float,
    catalog: RuleCatalog,
    results: List[ScoredRule],
) -> None:
    """Plan-free ap-genrules for one itemset (above :data:`PLAN_SIZE_CAP`).

    Level-wise consequent growth with confidence-based pruning; visits
    candidates in the same order as a plan replay (level by level,
    lexicographic within a level), so which path an itemset takes never
    changes the derived rules or their catalog ids.
    """
    consequents: List[Itemset] = [(item,) for item in itemset]
    while consequents:
        surviving: List[Itemset] = []
        for consequent in consequents:
            consequent_items = set(consequent)
            antecedent = tuple(
                i for i in itemset if i not in consequent_items
            )
            if not antecedent:
                continue
            antecedent_count = counts.get(antecedent, 0)
            if antecedent_count == 0:
                # Cannot happen for a correct miner (downward closure)
                # but guard against inconsistent inputs.
                continue
            confidence = itemset_count / antecedent_count
            if confidence < min_confidence:
                continue
            surviving.append(consequent)
            rule_id, rule = catalog.intern_parts(antecedent, consequent)
            results.append(
                ScoredRule(
                    rule_id=rule_id,
                    rule=rule,
                    support=support,
                    confidence=confidence,
                    rule_count=itemset_count,
                    antecedent_count=antecedent_count,
                    window_size=n,
                    consequent_count=counts.get(consequent, 0),
                )
            )
        if not surviving:
            break
        consequents = _grow_consequents(surviving, len(itemset))


def _grow_consequents(frequent: List[Itemset], itemset_size: int) -> List[Itemset]:
    """Join surviving k-consequents into (k+1)-candidates (apriori-gen)."""
    size = len(frequent[0]) + 1
    if size >= itemset_size:
        return []
    survivors = set(frequent)
    by_prefix: Dict[Itemset, List[int]] = {}
    for consequent in frequent:
        by_prefix.setdefault(consequent[:-1], []).append(consequent[-1])
    candidates: List[Itemset] = []
    for prefix, tails in by_prefix.items():
        tails.sort()
        for i, a in enumerate(tails):
            for b in tails[i + 1 :]:
                candidate = prefix + (a, b)
                if all(
                    candidate[:drop] + candidate[drop + 1 :] in survivors
                    for drop in range(size - 1)
                ):
                    candidates.append(candidate)
    return candidates
