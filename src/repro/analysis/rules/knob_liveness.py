"""REP012 — knob-liveness: the knob registry and its read sites agree.

The central registry (:mod:`repro.util.knobs`) made knob *declarations*
single-sourced.  This rule checks, whole-program, that declarations and
read sites agree both ways:

* **dead knob** — a ``Knob(...)`` registration whose name is never
  passed to any call anywhere else in the tree.  Dead knobs are
  documentation that lies: the README table advertises a behavior no
  code implements.  Reported at the registration line.
* **phantom read** — a ``REPRO_*`` literal used in a call with no
  matching registration in the scanned registry — in library code,
  tests (``monkeypatch.setenv``) and benchmarks alike.  The check works
  purely from source, so it also runs on fixture trees and catches a
  registration deleted while its readers survive.

Both directions are inherently cross-module: registrations live in one
file, reads everywhere else, and only the project model sees both.  The
``REPRO_TEST_*`` fixture namespace is exempt.  When the
scanned tree has no registry module at all the rule is silent — a
partial lint (one file, a fixture tree) cannot judge liveness.

Benchmark-harness knobs are read under ``benchmarks/`` — which is why
the default lint roots include it; a knob legitimately read only
outside the lint roots needs an inline suppression on its registration
line.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from ..core import Finding, Rule, register_rule
from ..project import ModuleInfo, ProjectModel

__all__ = ["KnobLivenessRule"]

_REGISTRY_SUFFIX = "repro/util/knobs.py"
_TEST_NAMESPACE = "REPRO_TEST_"

#: A full knob name, not any string that merely starts with the prefix —
#: ``startswith("REPRO_")`` checks and prose fragments must not count as
#: read sites.
_KNOB_NAME_RE = re.compile(r"^REPRO_[A-Z][A-Z0-9_]*$")


def _knob_name(strings: Tuple[str, ...]) -> str:
    for value in strings:
        if _KNOB_NAME_RE.match(value):
            return value
    return ""


def _registrations(info: ModuleInfo) -> List[Tuple[str, int, int]]:
    """``(name, line, col)`` for every ``Knob(...)`` declaration."""
    out: List[Tuple[str, int, int]] = []
    for _, call in info.all_calls():
        if call.name.rpartition(".")[2] != "Knob":
            continue
        name = _knob_name(call.str_args)
        if name:
            out.append((name, call.line, call.col))
    return out


@register_rule
class KnobLivenessRule(Rule):
    code = "REP012"
    name = "knob-liveness"
    description = (
        "every registered REPRO_* knob has a read site and every read "
        "site has a registration (dead/phantom knob detection)"
    )

    def check_project(self, project: ProjectModel) -> List[Finding]:
        registry: ModuleInfo = None  # type: ignore[assignment]
        for path in sorted(project.by_path):
            if path.endswith(_REGISTRY_SUFFIX):
                registry = project.by_path[path]
                break
        if registry is None:
            return []
        registered = _registrations(registry)
        registered_names = {name for name, _, _ in registered}
        reads: Dict[str, List[Tuple[str, int, int]]] = {}
        for path in sorted(project.by_path):
            info = project.by_path[path]
            if info is registry:
                continue
            for _, call in info.all_calls():
                if call.name.rpartition(".")[2] == "Knob":
                    continue
                name = _knob_name(call.str_args)
                if not name or name.startswith(_TEST_NAMESPACE):
                    continue
                reads.setdefault(name, []).append(
                    (info.path, call.line, call.col)
                )
        findings: List[Finding] = []
        for name, line, col in registered:
            if name.startswith(_TEST_NAMESPACE) or name in reads:
                continue
            findings.append(
                Finding(
                    path=registry.path,
                    line=line,
                    col=col,
                    code=self.code,
                    message=(
                        f"knob {name!r} is registered but never read "
                        "anywhere in the tree; delete it or add the read "
                        "site"
                    ),
                )
            )
        for name in sorted(reads):
            if name in registered_names:
                continue
            for path, line, col in reads[name]:
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        col=col,
                        code=self.code,
                        message=(
                            f"knob {name!r} is read here but has no "
                            "Knob(...) registration in repro.util.knobs"
                        ),
                    )
                )
        return findings
