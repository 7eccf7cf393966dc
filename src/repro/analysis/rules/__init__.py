"""Rule modules; importing this package registers every rule.

One module per rule keeps each invariant's rationale, detection logic,
and edge cases reviewable in isolation.  New rules: add a module here,
decorate the class with :func:`repro.analysis.base.register_rule`, pick
the next free ``R0xx`` id, and document it in
``docs/static_analysis.md``.
"""

from __future__ import annotations

from repro.analysis.rules.clocks import DirectClockRule
from repro.analysis.rules.epochs import EpochDisciplineRule
from repro.analysis.rules.exceptions import ExceptionDisciplineRule
from repro.analysis.rules.float_equality import FloatEqualityRule
from repro.analysis.rules.frozen_types import FrozenValueTypeRule
from repro.analysis.rules.layering import ImportLayeringRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.publish import PublishImmutabilityRule

__all__ = [
    "DirectClockRule",
    "EpochDisciplineRule",
    "ExceptionDisciplineRule",
    "FloatEqualityRule",
    "FrozenValueTypeRule",
    "ImportLayeringRule",
    "LockDisciplineRule",
    "PublishImmutabilityRule",
]
