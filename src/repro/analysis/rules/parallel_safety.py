"""REP010 — parallel-safety: only picklable callables cross the pool.

:func:`repro.util.parallel.parallel_map` ships its callable to worker
processes by pickling; pickle serializes functions *by qualified name*,
so a lambda or a function nested inside another function cannot cross
the boundary under every start method.  Under ``fork`` the workers
inherit ``fn`` and never pickle it, so the mistake passes unnoticed on
Linux.  Under ``spawn``/``forkserver`` the failed pickle breaks the
pool, and ``parallel_map`` salvages every item serially in the parent:
the results are right, but the run loses its parallelism.

The rule resolves the callable through the project model, so the
violation is caught even when the lambda lives in a different module
than the ``parallel_map`` call:

* a literal ``lambda`` argument — always a finding;
* a name bound to a nested ``def`` or a local ``lambda`` in the calling
  function — a closure, always a finding;
* a name resolving (through import bindings, re-export chains included)
  to a module-level ``lambda`` assignment anywhere in the project — a
  finding at the call site (the cross-module case);
* module-level functions, classes, and constructed task objects
  (``_PairFitTask(...)`` instances) are accepted — instances pickle by
  state, not by name.

Scope: library code.  Tests deliberately pass unpicklable work to
exercise the serial salvage path.
"""

from __future__ import annotations

from typing import List, Optional

from ..core import Finding, Rule, register_rule
from ..project import CallSite, FunctionInfo, ProjectModel

__all__ = ["ParallelSafetyRule"]

#: Canonical names whose first argument must be pool-safe.
_POOL_ENTRIES = frozenset(
    {
        "repro.util.parallel.parallel_map",
        "repro.obs.trace.WorkerTask",
    }
)


@register_rule
class ParallelSafetyRule(Rule):
    code = "REP010"
    name = "parallel-safety"
    description = (
        "callables passed to parallel_map/WorkerTask must be module-level "
        "and picklable: no lambdas, no closures"
    )

    def check_project(self, project: ProjectModel) -> List[Finding]:
        findings: List[Finding] = []
        for module in sorted(project.by_module):
            info = project.by_module[module]
            if not info.in_library or info.is_test:
                continue
            for fn, call in info.all_calls():
                canonical = project.resolve_call(module, call.name)
                if canonical not in _POOL_ENTRIES:
                    continue
                problem = self._diagnose(project, module, fn, call)
                if problem is not None:
                    findings.append(
                        Finding(
                            path=info.path,
                            line=call.line,
                            col=call.col,
                            code=self.code,
                            message=(
                                f"{call.name}() given {problem}; pass a "
                                "module-level function or a picklable task "
                                "object"
                            ),
                        )
                    )
        return findings

    def _diagnose(
        self,
        project: ProjectModel,
        module: str,
        fn: Optional[FunctionInfo],
        call: CallSite,
    ) -> Optional[str]:
        """Reason the first argument cannot cross the pool, or ``None``."""
        if call.arg0_kind == "lambda":
            return "a lambda (pickles by name, which a lambda lacks)"
        if call.arg0_kind != "name":
            return None  # attribute/call/constant: assume a task object
        name = call.arg0_name
        if fn is not None:
            if name in fn.local_funcs:
                return (
                    f"nested function {name!r} (a closure; move it to "
                    "module level)"
                )
            if name in fn.local_lambdas:
                return f"local lambda {name!r}"
            if name in fn.local_assigns or name in fn.params:
                return None  # a local object; assume picklable
        resolved = project.resolve_symbol(module, name)
        if resolved is None:
            return None
        def_module, sym = resolved
        if sym.kind == "lambda":
            where = (
                "" if def_module == module else f" (defined in {def_module})"
            )
            return f"lambda-valued binding {name!r}{where}"
        return None
