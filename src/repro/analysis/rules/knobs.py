"""REP001 — every ``REPRO_*`` knob goes through the central registry.

Two invariants, both of which had already eroded by PR 2:

* ``os.environ`` (and ``os.getenv``/``os.putenv``) is touched only by
  :mod:`repro.util.env` — everything else reads knobs through the typed
  getters, so parsing, warnings, and clamping cannot fork per call site;
* every ``REPRO_*`` name passed to *any* call (knob getters,
  ``monkeypatch.setenv`` in tests, subprocess env setup) is declared in
  :data:`repro.util.knobs.KNOBS`.  The ``REPRO_TEST_*`` namespace is
  reserved for test fixtures exercising the parsers themselves and is
  exempt.

Both checks run in one pass over the file's nodes.  The env owner may
touch ``os.environ`` but its knob literals are still checked.
"""

from __future__ import annotations

import ast
import re
from typing import List

from ...util.knobs import KNOBS
from ..core import FileContext, Finding, Rule, iter_call_name, register_rule

__all__ = ["KnobRegistryRule"]

_KNOB_NAME = re.compile(r"^REPRO_[A-Z0-9_]+$")
_TEST_NAMESPACE = "REPRO_TEST_"
_ENV_OWNER = "repro/util/env.py"
_OS_ENV_CALLS = ("os.getenv", "os.putenv", "os.unsetenv")


@register_rule
class KnobRegistryRule(Rule):
    code = "REP001"
    name = "knob-registry"
    description = (
        "REPRO_* knobs must be declared in repro.util.knobs and read via "
        "repro.util.env; no raw os.environ access elsewhere"
    )

    def check_file(self, ctx: FileContext) -> List[Finding]:
        env_owner = ctx.path.endswith(_ENV_OWNER)
        findings: List[Finding] = []
        for node in ctx.nodes:
            if isinstance(node, ast.Call):
                findings.extend(self._undeclared_knobs(ctx, node))
            if env_owner:
                continue
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

    def _undeclared_knobs(
        self, ctx: FileContext, call: ast.Call
    ) -> List[Finding]:
        """A finding at each undeclared ``REPRO_*`` literal passed to
        ``call``, reported at the literal's own position."""
        findings: List[Finding] = []
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if not (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and _KNOB_NAME.match(arg.value)
            ):
                continue
            name = arg.value
            if name in KNOBS or name.startswith(_TEST_NAMESPACE):
                continue
            findings.append(
                self.finding(
                    ctx,
                    arg,
                    f"knob {name!r} is not declared in "
                    "repro.util.knobs.KNOBS (REPRO_TEST_* is the "
                    "fixture namespace)",
                )
            )
        return findings
