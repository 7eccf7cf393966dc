"""The paper's primary contribution: the TARA framework.

Offline phase: :class:`TaraBuilder` / :func:`build_knowledge_base`
produce a :class:`TaraKnowledgeBase` (rule catalog + TAR Archive + EPS
index).  Online phase: :class:`TaraExplorer`.  Incremental maintenance:
:class:`IncrementalTara`, which publishes immutable :class:`Snapshot`
views that readers pin through :class:`SnapshotHandle`.

The exports resolve lazily (PEP 562): ``import repro.core.builder``
loads the builder's own dependencies, not the explorer, the query
types, the incremental publisher or the storage layer.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, List

from repro.common.errors import UnknownExportError

if TYPE_CHECKING:
    from repro.core.archive import RolledUpMeasure, TarArchive, WindowMeasure
    from repro.core.builder import (
        GenerationConfig,
        TaraBuilder,
        TaraKnowledgeBase,
        build_knowledge_base,
    )
    from repro.core.explorer import ExplorerAnswer, TaraExplorer
    from repro.core.incremental import IncrementalTara
    from repro.core.lazykb import LazyTaraKnowledgeBase, ShardedArchive
    from repro.core.locations import (
        CountLocation,
        Location,
        count_axes,
        group_by_location,
        group_rows,
        location_of,
    )
    from repro.core.persistence import load_knowledge_base, save_knowledge_base
    from repro.core.queries import (
        CompareQuery,
        ComparisonResult,
        ContentQuery,
        ExplorerQuery,
        MatchMode,
        MinedRule,
        Recommendation,
        RecommendQuery,
        RollupAnswer,
        RolledUpRule,
        RollupQuery,
        RuleTrajectory,
        TrajectoryQuery,
        WindowDiff,
    )
    from repro.core.regions import ParameterSetting, StableRegion, WindowSlice
    from repro.core.snapshot import Snapshot, SnapshotHandle
    from repro.core.rollup import max_support_error, rolled_up_mine
    from repro.core.trajectory import TrajectorySummary, summarize_trajectory

#: The submodule of each export, imported on first access.
_EXPORTS = {
    name: f"repro.core.{module}"
    for module, names in (
        ("archive", "RolledUpMeasure TarArchive WindowMeasure"),
        (
            "builder",
            "GenerationConfig TaraBuilder TaraKnowledgeBase "
            "build_knowledge_base",
        ),
        ("explorer", "ExplorerAnswer TaraExplorer"),
        ("incremental", "IncrementalTara"),
        ("lazykb", "LazyTaraKnowledgeBase ShardedArchive"),
        (
            "locations",
            "CountLocation Location count_axes group_by_location group_rows "
            "location_of",
        ),
        ("persistence", "load_knowledge_base save_knowledge_base"),
        (
            "queries",
            "CompareQuery ComparisonResult ContentQuery ExplorerQuery MatchMode "
            "MinedRule RecommendQuery Recommendation RolledUpRule RollupAnswer "
            "RollupQuery RuleTrajectory TrajectoryQuery WindowDiff",
        ),
        ("regions", "ParameterSetting StableRegion WindowSlice"),
        ("snapshot", "Snapshot SnapshotHandle"),
        ("rollup", "max_support_error rolled_up_mine"),
        ("trajectory", "TrajectorySummary summarize_trajectory"),
    )
    for name in names.split()
}

__all__ = [
    "CompareQuery",
    "ComparisonResult",
    "ContentQuery",
    "ExplorerAnswer",
    "ExplorerQuery",
    "GenerationConfig",
    "IncrementalTara",
    "LazyTaraKnowledgeBase",
    "Location",
    "MatchMode",
    "MinedRule",
    "ParameterSetting",
    "Recommendation",
    "RecommendQuery",
    "RolledUpMeasure",
    "RolledUpRule",
    "RollupAnswer",
    "RollupQuery",
    "RuleTrajectory",
    "Snapshot",
    "SnapshotHandle",
    "TrajectoryQuery",
    "StableRegion",
    "ShardedArchive",
    "TarArchive",
    "TaraBuilder",
    "TaraExplorer",
    "TaraKnowledgeBase",
    "TrajectorySummary",
    "WindowDiff",
    "WindowMeasure",
    "WindowSlice",
    "CountLocation",
    "build_knowledge_base",
    "count_axes",
    "group_by_location",
    "group_rows",
    "load_knowledge_base",
    "location_of",
    "save_knowledge_base",
    "max_support_error",
    "rolled_up_mine",
    "summarize_trajectory",
]


def __getattr__(name: str) -> Any:
    """Import an export's submodule on first access (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise UnknownExportError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
