"""R007 — values published to shared readers are transitively immutable.

The serving tier's byte cache hands one stored body to any number of
later requests without copying, and the answer types those bodies are
encoded from are shared by every reader of an answer.  One mutable
container smuggled into a published value — a ``bytearray`` body, a
``list`` inside a frozen tuple, a ``dict`` field on a "frozen"
dataclass — turns cache hits into cross-request aliasing bugs that no
fingerprint test catches (the first request computes the right answer;
the *second* one mutates it for everybody).  PRs 4–5 made every build
byte-identical; this rule keeps served answers that way.

Three publish surfaces are checked:

* the ``value`` argument of :meth:`ResponseCache.put` /
  :meth:`ResponseCache.put_gzip`: encoded response bodies are spliced
  verbatim into every later matching response, so a mutable value
  there corrupts wire bytes for all future readers;
* every ``return`` of a function marked with a trailing
  ``repro-lint: publish`` directive on its ``def`` line — a declared
  freeze boundary;
* field annotations of frozen dataclasses in the answer-type layers:
  ``Dict``/``List``/``Set``/``bytearray`` (and their lowercase builtin
  forms) anywhere in a frozen class's field type mean the "immutable"
  value owns a mutable container — use ``Mapping``/``Sequence``/
  ``Tuple``/``FrozenSet`` views instead, which mypy-strict then holds
  read-only at every consumer site.

Expression verdicts come from :mod:`repro.analysis.dataflow`: reaching
definitions inside the function, ``self.*`` alias tracking, and a
bounded call-graph walk from the sink (so ``value = self.freeze(...)``
resolves through the callee's returns).  Only *provably* mutable values
are flagged; opaque expressions pass.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.analysis.base import ProjectRule, RuleScope, register_rule
from repro.analysis.dataflow import MUTABLE, EvalScope, classify_mutability
from repro.analysis.findings import Finding
from repro.analysis.project import (
    ClassInfo,
    FunctionNode,
    ModuleInfo,
    ProjectIndex,
)

#: ``(class name, method, value-argument index)`` cache publish sinks.
PUT_SINKS: Tuple[Tuple[str, str, int], ...] = (
    ("ResponseCache", "put", 1),
    ("ResponseCache", "put_gzip", 1),
)

#: Annotation names that make a frozen dataclass field mutable inside.
MUTABLE_ANNOTATIONS = frozenset(
    {
        "Dict",
        "dict",
        "List",
        "list",
        "Set",
        "set",
        "bytearray",
        "DefaultDict",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "deque",
        "MutableMapping",
        "MutableSequence",
        "MutableSet",
    }
)


def _annotation_names(annotation: ast.expr) -> Iterator[str]:
    """Every bare name mentioned anywhere in a type annotation."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String (forward-reference) annotations re-parse lazily.
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(inner.body)


@register_rule
class PublishImmutabilityRule(ProjectRule):
    """Publish sinks receive only transitively immutable values.

    Whitelist: tuples, frozensets, str/int/float/bytes, ``Fraction``,
    frozen dataclasses and NamedTuples.  A list/dict/set/bytearray that
    provably reaches a cache put or a declared publish return is an
    error — freeze it at the boundary instead.
    """

    rule_id = "R007"
    title = "published values must be transitively immutable"
    fix_hint = (
        "freeze before publishing (tuple/frozenset/Mapping views, "
        "frozen dataclasses); annotate frozen-dataclass fields with "
        "read-only types (Mapping, Sequence, Tuple, FrozenSet)"
    )
    scope = RuleScope(
        include=(
            "repro/service/",
            "repro/serve/",
            "repro/core/queries.py",
        )
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        """Walk cache-put sinks, publish-marked returns, frozen fields."""
        for module in sorted(
            index.modules.values(), key=lambda m: m.logical_path
        ):
            yield from self._check_frozen_fields(module)
            for owner, function in _functions_of(module):
                scope = EvalScope(
                    index=index, module=module, function=function, owner=owner
                )
                yield from self._check_put_sinks(module, scope, function)
                if function.lineno in module.publish_lines:
                    yield from self._check_publish_returns(
                        module, scope, function
                    )

    # ------------------------------------------------------------------
    # sink checks
    # ------------------------------------------------------------------
    def _check_put_sinks(
        self,
        module: ModuleInfo,
        scope: EvalScope,
        function: FunctionNode,
    ) -> Iterator[Finding]:
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            sink = self._match_put_sink(node, scope)
            if sink is None:
                continue
            class_name, method, value = sink
            if classify_mutability(value, scope) is MUTABLE:
                yield self.project_finding(
                    module,
                    value,
                    f"mutable container published into "
                    f"{class_name}.{method}; cached values are shared "
                    "across readers and must be transitively immutable",
                )

    def _match_put_sink(
        self, node: ast.Call, scope: EvalScope
    ) -> Optional[Tuple[str, str, ast.expr]]:
        """Resolve a call as a cache publish sink, or ``None``."""
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        receiver = func.value
        receiver_class: Optional[str] = None
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and scope.owner is not None
        ):
            receiver_class = scope.owner.attr_classes.get(receiver.attr)
        elif isinstance(receiver, ast.Name) and receiver.id == "self":
            receiver_class = scope.owner.name if scope.owner else None
        for class_name, method, arg_index in PUT_SINKS:
            if func.attr != method or receiver_class != class_name:
                continue
            value: Optional[ast.expr] = None
            if len(node.args) > arg_index:
                value = node.args[arg_index]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "value":
                        value = keyword.value
            if value is not None:
                return class_name, method, value
        return None

    def _check_publish_returns(
        self,
        module: ModuleInfo,
        scope: EvalScope,
        function: FunctionNode,
    ) -> Iterator[Finding]:
        for node in ast.walk(function):
            if isinstance(node, ast.Return) and node.value is not None:
                if classify_mutability(node.value, scope) is MUTABLE:
                    yield self.project_finding(
                        module,
                        node.value,
                        f"{function.name} is a declared publish boundary "
                        "but returns a mutable container; freeze it "
                        "(tuple/frozenset/frozen dataclass) first",
                    )

    # ------------------------------------------------------------------
    # frozen dataclass fields
    # ------------------------------------------------------------------
    def _check_frozen_fields(self, module: ModuleInfo) -> Iterator[Finding]:
        for info in module.classes.values():
            if not info.is_frozen_dataclass:
                continue
            for statement in info.node.body:
                if not isinstance(statement, ast.AnnAssign):
                    continue
                if not isinstance(statement.target, ast.Name):
                    continue
                mutable_names = sorted(
                    set(_annotation_names(statement.annotation))
                    & MUTABLE_ANNOTATIONS
                )
                if mutable_names:
                    yield self.project_finding(
                        module,
                        statement,
                        f"frozen dataclass {info.name} field "
                        f"{statement.target.id!r} is annotated with "
                        f"mutable container(s) {', '.join(mutable_names)}; "
                        "published answers alias these across readers",
                    )


def _functions_of(
    module: ModuleInfo,
) -> Iterator[Tuple[Optional[ClassInfo], FunctionNode]]:
    """Every (owning class or None, def) in one module."""
    for function in module.functions.values():
        yield None, function
    for info in module.classes.values():
        for method in info.methods.values():
            yield info, method
