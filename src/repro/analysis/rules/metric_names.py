"""REP014 — span/metric names must be static lowercase dotted literals.

The observability surface is only greppable and diffable if its names
are *static*: ``python -m repro.obs diff`` matches span paths and
counter names across runs by string equality, DESIGN.md §12 documents
the ``area.operation`` convention, and dashboards/CI asserts key on
exact names.  A dynamically built name — ``span(f"cwt.{mode}")``,
``counter("cache_" + kind)`` — defeats all of that: the set of names in
play can no longer be read from the source, and an unbounded name set
(one per cell ID, say) bloats every snapshot.

Flagged, in importable library code outside :mod:`repro.obs` itself:

* a call to ``span`` / ``traced`` / ``counter`` / ``gauge`` /
  ``histogram`` (bare or attribute form — ``_obs.span``, ``obs.counter``)
  whose first positional argument is **not** a plain string literal;
* a literal name that does not match the convention
  ``^[a-z][a-z0-9_]*(\\.[a-z][a-z0-9_]*)+$`` — lowercase dotted, at
  least two segments, e.g. ``cwt.batch`` or ``campaign.cells_total``.

Exempt: tests, and the :mod:`repro.obs` package itself, whose helpers
legitimately forward caller-supplied ``name`` parameters.  A dynamic
name over a *provably bounded* set (a fixed runner table, checkpoint
stage names) carries an inline waiver::

    with span(f"stage.{name}"):  # replint: disable=REP014 -- stage names are the fixed checkpoint-stage set
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional

from ..core import FileContext, Finding, Rule, iter_call_name, register_rule

__all__ = ["MetricNamesRule"]

#: Observability factories whose first argument is a span/metric name.
_NAMED_FACTORIES = frozenset(
    {"span", "traced", "counter", "gauge", "histogram"}
)

#: The DESIGN.md §12 convention: lowercase dotted, >= 2 segments.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


def _factory_name(node: ast.Call) -> Optional[str]:
    """The obs-factory short name this call targets, if any."""
    called = iter_call_name(node.func)
    if called is None:
        return None
    leaf = called.rsplit(".", 1)[-1]
    return leaf if leaf in _NAMED_FACTORIES else None


@register_rule
class MetricNamesRule(Rule):
    code = "REP014"
    name = "static-metric-names"
    description = (
        "span/counter/gauge/histogram names must be lowercase dotted "
        "string literals (area.operation), not f-strings or "
        "concatenations — cross-run diffing matches on exact names"
    )

    def check_file(self, ctx: FileContext) -> List[Finding]:
        if not ctx.in_library or ctx.is_test:
            return []
        if ctx.module_name.startswith("repro.obs"):
            # The obs package itself forwards caller-supplied names.
            return []
        findings: List[Finding] = []
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            leaf = _factory_name(node)
            if leaf is None or not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                if not _NAME_RE.match(first.value):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"{leaf}() name {first.value!r} breaks the "
                            "lowercase dotted 'area.operation' "
                            "convention (DESIGN.md §12)",
                        )
                    )
            else:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{leaf}() name is built dynamically; use a "
                        "static lowercase dotted literal so runs stay "
                        "diffable (waiver only for provably bounded "
                        "name sets)",
                    )
                )
        return findings
