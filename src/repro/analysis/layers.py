"""The declared import-layering contract of the ``repro`` package.

The architecture is a strict layering (DESIGN.md)::

    _version -> common -> {data, analysis} -> storage -> mining -> core
             -> service -> serve -> {baselines, maras} -> datagen
             -> bench -> cli

A module may import from its own layer or from any *strictly lower*
rank.  Layers sharing a rank (``data``/``analysis``, and the two rule
consumers ``baselines``/``maras``) are siblings: neither may import the
other, which keeps the baselines honest (they must not peek at TARA
internals' siblings) and keeps the linter importable everywhere.

``storage`` is the one layer whose name differs from its directory: it
lives at ``repro/core/storage/`` (it is core's persistence substrate
and has no meaning outside it) but ranks *below* ``mining`` and
``core`` — the container codec/writer/reader must stay importable
without dragging in mining or query machinery, and core calls down
into it, never the reverse.  The mapping functions below special-case
that subtree.

``service`` (the online serving layer: region-keyed query cache and
metrics) sits directly above ``core`` — it wraps the explorer and must
know nothing about data generation or benchmarking.  ``serve`` (the
asyncio network tier: wire protocol, request coalescing, HTTP front
door) sits directly above ``service`` — it speaks sockets and JSON but
must not know how workloads are generated or benchmarked.  ``datagen``
sits above ``maras`` because the FAERS generator plants known
interactions from the MARAS reference knowledge base; ``bench`` (the
``repro bench`` / ``bench-persist`` perf harnesses) builds workloads
from ``datagen`` and drives the build and storage layers from above;
the CLI and the package root sit on top and may import anything.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Layer name -> rank.  Imports must flow from higher ranks to lower.
LAYER_RANKS: Dict[str, int] = {
    "_version": 0,
    "common": 1,
    "data": 2,
    "analysis": 2,
    "storage": 3,
    "mining": 4,
    "core": 5,
    "service": 6,
    "serve": 7,
    "baselines": 8,
    "maras": 8,
    "datagen": 9,
    "bench": 10,
    "cli": 11,
    # Entry-point modules sit above everything, including the CLI.
    "__init__": 12,
    "__main__": 12,
}

#: Human-readable rendering of the contract, used in findings and docs.
LAYER_CHAIN = (
    "common -> {data, analysis} -> storage -> mining -> core -> service "
    "-> serve -> {baselines, maras} -> datagen -> bench -> cli"
)


def layer_of_logical_path(logical_path: str) -> Optional[str]:
    """Map ``repro/<layer>/...`` or ``repro/<module>.py`` to a layer name.

    Returns ``None`` for paths outside the ``repro`` package (the
    layering rule then does not apply).
    """
    parts = logical_path.split("/")
    if not parts or parts[0] != "repro" or len(parts) < 2:
        return None
    if len(parts) == 2:  # a top-level module such as repro/cli.py
        name = parts[1]
        return name[:-3] if name.endswith(".py") else name
    if parts[1] == "core" and parts[2] == "storage":
        return "storage"
    return parts[1]


def layer_of_module(module_name: str) -> Optional[str]:
    """Map a dotted import target (``repro.core.archive``) to its layer."""
    parts = module_name.split(".")
    if not parts or parts[0] != "repro":
        return None
    if len(parts) == 1:
        return "__init__"
    if len(parts) >= 3 and parts[1] == "core" and parts[2] == "storage":
        return "storage"
    return parts[1]


def rank_of(layer: Optional[str]) -> Optional[int]:
    """Rank of a layer name; ``None`` for unknown/out-of-tree layers."""
    if layer is None:
        return None
    return LAYER_RANKS.get(layer)
