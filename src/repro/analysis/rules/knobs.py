"""REP001 — ``os.environ`` belongs to :mod:`repro.util.env` alone.

``os.environ`` (and ``os.getenv``/``os.putenv``/``os.unsetenv``) is
touched only by :mod:`repro.util.env`; everything else reads knobs
through the typed getters in :mod:`repro.util.knobs`, so parsing,
warnings and clamping cannot fork per call site.  That a ``REPRO_*``
name is declared is checked elsewhere: REP012 reports reads with no
registration, and ``repro.util.knobs`` raises ``KeyError`` on any
undeclared name at run time.
"""

from __future__ import annotations

import ast
from typing import List

from ..core import FileContext, Finding, Rule, iter_call_name, register_rule

__all__ = ["KnobRegistryRule"]

_ENV_OWNER = "repro/util/env.py"
_OS_ENV_CALLS = ("os.getenv", "os.putenv", "os.unsetenv")


@register_rule
class KnobRegistryRule(Rule):
    code = "REP001"
    name = "knob-registry"
    description = (
        "no raw os.environ access outside repro.util.env; read REPRO_* "
        "knobs through repro.util.knobs"
    )

    def check_file(self, ctx: FileContext) -> List[Finding]:
        if ctx.path.endswith(_ENV_OWNER):
            return []
        findings: List[Finding] = []
        for node in ctx.nodes:
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("environ", "environb")
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "raw os.environ access; read knobs through "
                        "repro.util.env / repro.util.knobs",
                    )
                )
            elif isinstance(node, ast.Call):
                called = iter_call_name(node.func)
                if called in _OS_ENV_CALLS:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"{called}() bypasses repro.util.env; use the "
                            "knob getters",
                        )
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "os" and any(
                    alias.name in ("environ", "environb", "getenv")
                    for alias in node.names
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "importing os.environ/getenv bypasses "
                            "repro.util.env",
                        )
                    )
        return findings
