"""Incremental correlation matching — per-operator state instead of
recompute-on-arrival (see :mod:`repro.matching.engine`).

The reference semantics live in :mod:`repro.model.matching` and remain
the machine-checked oracle; this package is the one production engine
the node event path runs on.
"""

from .engine import MatchingEngine, OperatorMatcher
from .timeline import Timeline, TimelineView

__all__ = [
    "MatchingEngine",
    "OperatorMatcher",
    "Timeline",
    "TimelineView",
]
