"""REP004 — statistical reductions must pin their accumulation dtype.

The feature stack reduces float32 time-frequency images into means,
variances, and KL statistics; whether those accumulate in float32 or
float64 decides whether the batched fast paths match their references to
1e-15 or drift per-platform (NumPy picks the accumulator from the input
dtype, so a refactor that changes an intermediate's dtype silently
changes every downstream statistic).  PR 2's parity work standardized on
explicit ``dtype=`` for every reduction in the statistics-bearing
modules; this rule keeps it that way.

Scope: ``src/repro/features/``, where reduction precision reaches
trained templates.  Both
``np.sum(x)``-style calls and ``x.sum()``-style method calls count;
``dtype=None`` (an explicit "use NumPy's default") also satisfies the
rule because the choice is then visible at the call site.
"""

from __future__ import annotations

import ast
from typing import List

from ..core import FileContext, Finding, Rule, iter_call_name, register_rule

__all__ = ["AccumulationDtypeRule"]

_REDUCTIONS = frozenset({"sum", "mean", "var", "std", "nansum", "nanmean"})
_SCOPE = "src/repro/features/"


@register_rule
class AccumulationDtypeRule(Rule):
    code = "REP004"
    name = "accumulation-dtype"
    description = (
        "float reductions (sum/mean/var/...) in features/ "
        "must pass an explicit dtype="
    )

    def check_file(self, ctx: FileContext) -> List[Finding]:
        if _SCOPE not in ctx.path:
            return []
        findings: List[Finding] = []
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr not in _REDUCTIONS:
                continue
            called = iter_call_name(node.func)
            is_np_call = called is not None and called.split(".")[0] in (
                "np",
                "numpy",
            )
            # Either np.sum(x, ...) or <expr>.sum(...): both reduce.
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            target = called if is_np_call else f"<array>.{attr}"
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"{target}() without an explicit dtype=; accumulation "
                    "precision must not depend on the input's dtype",
                )
            )
        return findings
