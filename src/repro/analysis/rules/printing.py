"""REP008 — no bare ``print()`` in library code.

Library modules that print to stdout corrupt machine-readable output
(result tables, Intel HEX dumps, JSON exports all flow through stdout)
and bypass the level-gated stderr logger.  Status and progress messages
belong in :mod:`repro.obs.log`, which honours ``REPRO_OBS_LOG_LEVEL``
and keeps stdout reserved for data.

Flagged: any call to the ``print`` builtin in importable code under
``src/repro``, *except* in ``__main__`` entry-point modules — a CLI's
data output (tables, listings, hex dumps) legitimately goes to stdout
via ``print``.

A deliberate stdout write in library code (rare; e.g. a renderer whose
contract *is* stdout) carries an inline waiver::

    print(table)  # replint: disable=REP008 -- stdout is this function's contract
"""

from __future__ import annotations

import ast
from typing import List

from ..core import FileContext, Finding, Rule, register_rule

__all__ = ["PrintingRule"]


@register_rule
class PrintingRule(Rule):
    code = "REP008"
    name = "no-bare-print"
    description = (
        "library code must not call print(); route status messages "
        "through repro.obs.log (entry-point __main__ modules exempt)"
    )

    def check_file(self, ctx: FileContext) -> List[Finding]:
        if not ctx.in_library or ctx.is_test or ctx.is_entry_point:
            return []
        findings: List[Finding] = []
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "bare print() in library code; use "
                        "repro.obs.log (stderr, level-gated) for status "
                        "or return the text to the caller",
                    )
                )
        return findings
