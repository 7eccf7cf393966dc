"""R008 — epoch discipline: epoch tags compare by equality only.

The serving layer's invalidation protocol (service docstring, point 3)
is built on two facts about epochs:

1. **Epoch tags are identities, not a timeline.**  An entry is valid
   iff its tag *equals* the current epoch (or is ``EPOCH_FREE``).
   Ordering comparisons (``entry.epoch < epoch``) encode the accidental
   fact that epochs are monotonically increasing window counts — an
   assumption that breaks the moment epochs recycle or fork.  Equality
   survives any epoch scheme; ``<`` does not.

2. **Epoch relationships live inside** :class:`repro.core.Snapshot`.
   Since PR 8 readers pin an immutable snapshot through a refcounted
   handle, so correctness never depends on comparing one epoch against
   another anywhere else: a comparison between *two* epoch values in
   service/serve code is a re-derivation of the pre-snapshot
   "re-check after the epoch moved" protocol, which the handle API
   made unnecessary and unsound.  Comparing one epoch value against an
   ALL-UPPERCASE sentinel (``epoch != EPOCH_FREE``) stays legal — that
   is classification, not a relationship between epochs.

The rule therefore flags, within the serving layers:

* any ordering comparison (``<``, ``<=``, ``>``, ``>=``) whose operand
  mentions an epoch (a name or attribute containing ``epoch``);
* any equality comparison (``==``, ``!=``) where two or more operands
  are epoch-valued (epoch-ish and not an ALL-UPPERCASE sentinel),
  unless the comparison sits lexically inside a class named
  ``Snapshot`` — the one place epoch identity is allowed to matter.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.base import ProjectRule, RuleScope, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import ModuleInfo, ProjectIndex

_ORDERING_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_EQUALITY_OPS = (ast.Eq, ast.NotEq)


def _mentions_epoch(node: ast.expr) -> bool:
    """True when the expression names anything epoch-ish."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and "epoch" in child.id.lower():
            return True
        if isinstance(child, ast.Attribute) and "epoch" in child.attr.lower():
            return True
    return False


def _epoch_valued(node: ast.expr) -> bool:
    """True when the expression carries a live epoch value.

    ALL-UPPERCASE epoch-ish identifiers (``EPOCH_FREE``) are sentinels
    by the repo's constant convention, not epoch values — comparing
    against one classifies an entry rather than relating two epochs.
    """
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Name)
            and "epoch" in child.id.lower()
            and not child.id.isupper()
        ):
            return True
        if (
            isinstance(child, ast.Attribute)
            and "epoch" in child.attr.lower()
            and not child.attr.isupper()
        ):
            return True
    return False


def _snapshot_class_nodes(tree: ast.Module) -> Set[int]:
    """ids of every node lexically inside a class named ``Snapshot``."""
    inside: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Snapshot":
            inside.update(id(child) for child in ast.walk(node))
    return inside


@register_rule
class EpochDisciplineRule(ProjectRule):
    """Epoch tags compare only by equality, and only inside Snapshot.

    Ordering comparisons bake in monotonic epochs the MVCC snapshots
    retired; a one-line mistake that passes every single-threaded test.
    """

    rule_id = "R008"
    title = "epoch tags are equality-only"
    fix_hint = (
        "compare epochs with ==/!= (validity is identity, not age) and "
        "keep relationships between epochs inside class Snapshot"
    )
    scope = RuleScope(
        include=(
            "repro/service/",
            "repro/serve/",
            "repro/core/incremental.py",
            "repro/core/snapshot.py",
        )
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        """Flag epoch ordering and cross-epoch equality comparisons."""
        for module in sorted(
            index.modules.values(), key=lambda m: m.logical_path
        ):
            yield from self._check_comparisons(module)

    def _check_comparisons(self, module: ModuleInfo) -> Iterator[Finding]:
        snapshot_nodes = _snapshot_class_nodes(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(
                isinstance(op, _ORDERING_OPS) for op in node.ops
            ) and any(_mentions_epoch(operand) for operand in operands):
                yield self.project_finding(
                    module,
                    node,
                    "ordering comparison on an epoch tag; epoch validity "
                    "is identity (==/!=), not age — ordering breaks when "
                    "epochs recycle or fork",
                )
                continue
            if (
                any(isinstance(op, _EQUALITY_OPS) for op in node.ops)
                and sum(1 for op in operands if _epoch_valued(op)) >= 2
                and id(node) not in snapshot_nodes
            ):
                yield self.project_finding(
                    module,
                    node,
                    "equality comparison between two epoch values outside "
                    "class Snapshot; snapshot-handle discipline keeps "
                    "epoch relationships inside Snapshot — pin a handle "
                    "instead of re-checking epochs (sentinel checks like "
                    "`epoch != EPOCH_FREE` remain fine)",
                )
