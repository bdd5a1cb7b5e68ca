"""The replint rule set (REP001, REP003–REP014).

Importing this package populates :data:`repro.analysis.core.RULE_REGISTRY`;
each module holds one rule so a rule's scope, heuristics, and rationale
live next to its implementation.  REP002 (fast/reference parity) is
retired: stages no longer ship reference twins.  REP001–REP008 and
REP014 are per-file rules (``check_file``); REP009–REP012 are
whole-program rules that run against the
:class:`~repro.analysis.project.ProjectModel` (``check_project``);
REP013 reports stale suppression comments (detected by the runner after
both phases).
"""

from __future__ import annotations

from typing import List

from ..core import RULE_REGISTRY, Rule
from . import (
    determinism,
    dtype_flow,
    dtypes,
    exceptions,
    exports,
    knob_liveness,
    knobs,
    layering,
    metric_names,
    parallel_safety,
    printing,
    span_coverage,
    suppressions,
)

__all__ = [
    "all_rules",
    "determinism",
    "dtype_flow",
    "dtypes",
    "exceptions",
    "exports",
    "knob_liveness",
    "knobs",
    "layering",
    "metric_names",
    "parallel_safety",
    "printing",
    "span_coverage",
    "suppressions",
]


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in code order."""
    return [RULE_REGISTRY[code]() for code in sorted(RULE_REGISTRY)]
