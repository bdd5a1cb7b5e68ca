"""REP013 — unused suppressions: stale waivers are findings too.

Every ``# replint: disable=REPxxx`` is a debt marker: it asserts that a
specific rule fires on that line and a human decided the firing is
acceptable.  When the underlying code is later fixed or the rule
refined, the comment stays behind and silently pre-authorizes a future
regression.  This rule reports any suppression — line-scoped or
file-wide — that silenced nothing during the run.

The detection lives in :mod:`repro.analysis.runner` rather than in a
hook here, because "unused" is only decidable after *both* phases
(per-file and project rules) have had the chance to fire into the
suppression.  This class exists so the code appears in
``--list-rules`` and the docs.

Escape hatches, to avoid self-reference loops: a suppression that names
``REP013`` itself is always treated as used (it is an explicit opt-out
for one line or file), and REP013 findings are not subject to bare
``# replint: disable`` comments (a stale bare disable would otherwise
silence its own staleness report).
"""

from __future__ import annotations

from ..core import Rule, register_rule

__all__ = ["UNUSED_SUPPRESSION_CODE", "UnusedSuppressionRule"]

UNUSED_SUPPRESSION_CODE = "REP013"


@register_rule
class UnusedSuppressionRule(Rule):
    code = UNUSED_SUPPRESSION_CODE
    name = "unused-suppression"
    description = (
        "a # replint: disable comment whose rule never fires on that "
        "line/file is stale and must be removed"
    )
