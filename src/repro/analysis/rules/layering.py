"""REP006 — import layering: substrate packages stay experiment-free.

The dependency direction is one-way: ``experiments`` drives the
substrate (``isa``/``sim``/``dsp`` and everything between), never the
other way around.  A substrate module importing from ``experiments``
would make the library's behavior depend on runner configuration —
exactly the coupling that makes reproductions unfalsifiable — and would
drag matplotlib-adjacent experiment code into every library import.

Both absolute (``from repro.experiments import ...``) and relative
(``from ..experiments import ...``) imports are resolved against the
file's module path.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from ..core import FileContext, Finding, Rule, register_rule

__all__ = ["ImportLayeringRule"]

#: package -> forbidden import prefixes.
_LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("repro.isa", ("repro.experiments",)),
    ("repro.sim", ("repro.experiments",)),
    ("repro.dsp", ("repro.experiments",)),
)


@register_rule
class ImportLayeringRule(Rule):
    code = "REP006"
    name = "import-layering"
    description = (
        "isa/sim/dsp must not import from experiments (substrate never "
        "depends on runners)"
    )

    def check_file(self, ctx: FileContext) -> List[Finding]:
        module = ctx.module_name
        forbidden: Tuple[str, ...] = ()
        for package, banned in _LAYERS:
            if module == package or module.startswith(package + "."):
                forbidden = banned
                break
        if not forbidden:
            return []
        findings: List[Finding] = []
        # Package context for relative-import resolution: an __init__'s
        # module name IS its package; a plain module's package is its
        # parent — FileContext.module_name already dropped __init__, so
        # only plain modules need the parent adjustment via level.
        package_ctx = (
            module
            if ctx.path.endswith("/__init__.py")
            else module.rsplit(".", 1)[0]
        )
        for node in ctx.nodes:
            targets: List[str] = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    targets = [node.module or ""]
                else:
                    parts = package_ctx.split(".")
                    parts = parts[: len(parts) - (node.level - 1)]
                    if node.module:
                        parts.append(node.module)
                    targets = [".".join(parts)]
            else:
                continue
            for target in targets:
                if any(
                    target == banned or target.startswith(banned + ".")
                    for banned in forbidden
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"{module} imports {target}; the substrate "
                            "must not depend on experiment runners",
                        )
                    )
        return findings
