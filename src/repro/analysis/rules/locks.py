"""R006 — lock discipline for ``guarded-by`` attributes.

The serving layer's thread-safety story is one sentence long: every
piece of :class:`~repro.service.service.TaraService` shared state is
touched under ``self._lock``.  Nothing enforced that sentence — a
refactor that reads ``self._epoch`` outside the lock compiles, passes
every single-threaded test, and corrupts cache coherence only under
concurrent appends.  This rule pins the contract: an attribute declared
``guarded-by=<lock>`` (a trailing directive on its assignment line) may
only be read or written while the declaring class lexically holds
``with self.<lock>:``.

Checked per class with declarations:

* **public methods** — every guarded access must sit inside the lock;
* **private methods** — a helper may rely on its *callers* holding the
  lock, so its unguarded accesses are flagged only when some intra-class
  call site does not hold the lock (or when no in-class call site
  exists to prove the discipline);
* ``__init__`` is exempt: construction happens-before publication.

Nested acquisition of two *distinct* locks must follow the single
global order declared with a standalone ``lock-order=`` directive
(qualified ``Class.attr`` names).  Nesting the runner can see —
lexical ``with`` nesting and one call hop through the project index —
is checked; acquisition chained through dynamic callbacks (e.g. a
snapshot's retirement callback) cannot be traced and is covered by the declaration
itself plus review.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.base import ProjectRule, RuleScope, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import (
    ClassInfo,
    FunctionNode,
    ModuleInfo,
    ProjectIndex,
)


@dataclass
class _MethodFacts:
    """Lock-relevant events inside one method body."""

    #: (guarded attr, node, locks held) for each guarded self.* access.
    accesses: List[Tuple[str, ast.AST, FrozenSet[str]]] = field(default_factory=list)
    #: (method name, locks held) for each intra-class self.m(...) call.
    self_calls: List[Tuple[str, FrozenSet[str]]] = field(default_factory=list)
    #: (lock attr, node, locks held before) for each with-acquisition.
    acquisitions: List[Tuple[str, ast.AST, FrozenSet[str]]] = field(default_factory=list)


def _self_attr(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _with_locks(statement: ast.With, lock_attrs: FrozenSet[str]) -> List[str]:
    """Lock attributes acquired by one ``with`` statement."""
    acquired: List[str] = []
    for item in statement.items:
        attr = _self_attr(item.context_expr)
        if attr is not None and attr in lock_attrs:
            acquired.append(attr)
    return acquired


def _collect_method_facts(
    method: FunctionNode, info: ClassInfo
) -> _MethodFacts:
    """Walk one method tracking which locks are lexically held."""
    facts = _MethodFacts()
    guarded = frozenset(info.guarded)
    lock_attrs = info.lock_attrs

    def visit(node: ast.AST, held: FrozenSet[str]) -> None:
        if isinstance(node, ast.With):
            acquired = _with_locks(node, lock_attrs)
            for lock in acquired:
                facts.acquisitions.append((lock, node, held))
            inner = held.union(acquired)
            # The context expressions themselves evaluate before the
            # locks are held.
            for item in node.items:
                visit(item.context_expr, held)
                if item.optional_vars is not None:
                    visit(item.optional_vars, held)
            for child in node.body:
                visit(child, inner)
            return
        if isinstance(node, ast.Call):
            func = node.func
            attr = _self_attr(func) if isinstance(func, ast.Attribute) else None
            if attr is not None and attr in info.methods:
                facts.self_calls.append((attr, held))
        if isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None and attr in guarded:
                facts.accesses.append((attr, node, held))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested def or lambda runs later, possibly without the
            # lock; its guarded accesses are judged with no locks held.
            for child in ast.iter_child_nodes(node):
                visit(child, frozenset())
            return
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for statement in method.body:
        visit(statement, frozenset())
    return facts


@register_rule
class LockDisciplineRule(ProjectRule):
    """Guarded attributes are only touched under their declared lock.

    ``self.attr = ...  # repro-lint: guarded-by=_lock`` declares the
    contract; this rule makes a missing ``with self._lock:`` a lint
    failure instead of a code-review hope.  Nested acquisitions of
    distinct locks must follow the declared global lock order.
    """

    rule_id = "R006"
    title = "guarded-by attributes accessed only under their lock"
    fix_hint = (
        "wrap the access in `with self.<lock>:`, or move it into a "
        "helper whose callers all hold the lock; nested locks must "
        "follow the declared lock-order"
    )
    scope = RuleScope()  # any class that declares guarded-by contracts

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        """Check every class with guarded-by declarations, then lock order."""
        order, order_findings = self._declared_order(index)
        yield from order_findings
        for module in sorted(
            index.modules.values(), key=lambda m: m.logical_path
        ):
            for info in module.classes.values():
                if not info.guarded and not info.lock_attrs:
                    continue
                yield from self._check_class(module, info, order)

    # ------------------------------------------------------------------
    # guarded accesses
    # ------------------------------------------------------------------
    def _check_class(
        self,
        module: ModuleInfo,
        info: ClassInfo,
        order: Tuple[str, ...],
    ) -> Iterator[Finding]:
        for attr, lock in sorted(info.guarded.items()):
            if lock not in info.lock_attrs:
                yield self.project_finding(
                    module,
                    info.node,
                    f"{info.name}.{attr} declares guarded-by={lock} but "
                    f"{info.name} never assigns self.{lock} a "
                    "threading.Lock/RLock",
                )
        facts: Dict[str, _MethodFacts] = {
            name: _collect_method_facts(method, info)
            for name, method in info.methods.items()
        }
        # Call sites per private helper: (caller, locks held at the call).
        call_sites: Dict[str, List[FrozenSet[str]]] = {}
        for name, method_facts in facts.items():
            if name == "__init__":
                continue
            for callee, held in method_facts.self_calls:
                call_sites.setdefault(callee, []).append(held)
        for name in sorted(facts):
            if name == "__init__":
                continue
            method_facts = facts[name]
            is_public = not name.startswith("_")
            for attr, node, held in method_facts.accesses:
                lock = info.guarded[attr]
                if lock in held:
                    continue
                if is_public:
                    yield self.project_finding(
                        module,
                        node,
                        f"{info.name}.{name} touches guarded attribute "
                        f"self.{attr} outside `with self.{lock}:` "
                        f"(declared guarded-by={lock})",
                    )
                    continue
                sites = call_sites.get(name, [])
                unlocked_sites = [held for held in sites if lock not in held]
                if not sites or unlocked_sites:
                    why = (
                        "and no intra-class call site proves the lock is held"
                        if not sites
                        else "and at least one intra-class call site does "
                        "not hold the lock"
                    )
                    yield self.project_finding(
                        module,
                        node,
                        f"{info.name}.{name} touches guarded attribute "
                        f"self.{attr} without `with self.{lock}:` {why}",
                    )
        yield from self._check_nesting(module, info, facts, order)

    # ------------------------------------------------------------------
    # lock ordering
    # ------------------------------------------------------------------
    def _declared_order(
        self, index: ProjectIndex
    ) -> Tuple[Tuple[str, ...], List[Finding]]:
        """The single declared global lock order, plus conflicts found."""
        declarations = index.declared_lock_orders()
        findings: List[Finding] = []
        if not declarations:
            return (), findings
        first_joined, first_order, _ = declarations[0]
        for joined, _, module in declarations[1:]:
            if joined != first_joined:
                findings.append(
                    self.project_finding(
                        module,
                        module.tree,
                        f"conflicting lock-order declaration {joined!r}; "
                        f"the project-wide order is {first_joined!r} — "
                        "declare it once (or identically everywhere)",
                    )
                )
        return first_order, findings

    def _check_nesting(
        self,
        module: ModuleInfo,
        info: ClassInfo,
        facts: Dict[str, _MethodFacts],
        order: Tuple[str, ...],
    ) -> Iterator[Finding]:
        """Validate nested acquisitions against the declared order.

        Covers lexical nesting plus one call hop: acquiring inside a
        ``self.m(...)`` call made while a lock is held.
        """
        acquired_by_method: Dict[str, Set[str]] = {
            name: {lock for lock, _, _ in method_facts.acquisitions}
            for name, method_facts in facts.items()
        }
        pairs: List[Tuple[str, str, ast.AST]] = []
        for name, method_facts in facts.items():
            for lock, node, held_before in method_facts.acquisitions:
                for outer in sorted(held_before):
                    if outer != lock:
                        pairs.append((outer, lock, node))
            for callee, held in method_facts.self_calls:
                for inner in sorted(acquired_by_method.get(callee, set())):
                    for outer in sorted(held):
                        if outer != inner:
                            pairs.append((outer, inner, info.methods[callee]))
        seen: Set[Tuple[str, str]] = set()
        for outer, inner, node in pairs:
            outer_name = f"{info.name}.{outer}"
            inner_name = f"{info.name}.{inner}"
            if (outer_name, inner_name) in seen:
                continue
            seen.add((outer_name, inner_name))
            if outer_name not in order or inner_name not in order:
                yield self.project_finding(
                    module,
                    node,
                    f"nested acquisition {outer_name} -> {inner_name} has "
                    "no declared lock-order; declare the global order with "
                    "a `lock-order=` directive",
                )
            elif order.index(outer_name) > order.index(inner_name):
                yield self.project_finding(
                    module,
                    node,
                    f"nested acquisition {outer_name} -> {inner_name} "
                    f"violates the declared lock order {'-> '.join(order)}",
                )
