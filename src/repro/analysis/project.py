"""Phase-one project model for replint's cross-module rules.

Per-file AST rules (REP001–REP008) see one module at a time; the
invariants added since PR 4 — compiled-inference dtype policy, crash-safe
``parallel_map`` submission, obs span coverage, knob liveness — span
modules, so they need a *whole-program* view.  This module builds it:

* :func:`collect_module_info` distills one parsed file into a
  :class:`ModuleInfo` — import bindings resolved to absolute dotted
  targets, module-level symbol table, and a per-function index of call
  sites, ``with``-context calls, decorators, and trace-shaped loops.
  The runner calls it once per file, next to the per-file rules.
* :class:`ProjectModel` assembles every ``ModuleInfo`` into the project
  graph: a resolved import graph (forward and reverse), cross-module
  symbol resolution that follows re-export chains, and a call/def index
  (``resolve_call`` canonicalizes ``_obs.span`` to
  ``repro.obs.trace.span``).

Phase two hands the model to each rule's :meth:`Rule.check_project`
hook; REP009–REP012 are its first clients (see DESIGN.md §14).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import FileContext

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ImportBinding",
    "ModuleInfo",
    "ProjectModel",
    "SymbolDef",
    "collect_module_info",
]

#: Names that carry raw trace arrays by repo convention (``traces``,
#: ``raw_traces``, ``trace_set`` ...).  Used by the dtype-flow and
#: span-coverage rules.
TRACE_NAME = re.compile(r"^(?:raw_|ref_)?traces?(?:_[a-z0-9_]+)?$")


@dataclass(frozen=True)
class ImportBinding:
    """One name an ``import`` statement binds in a module.

    ``local`` is the name visible in the importing module; ``module`` is
    the absolute dotted module the binding points into; ``attr`` is the
    imported attribute (empty when the binding is the module object
    itself, as in ``import numpy as np``).
    """

    local: str
    module: str
    attr: str
    line: int


@dataclass(frozen=True)
class SymbolDef:
    """A module-level binding: ``kind`` is func/class/assign/lambda."""

    name: str
    kind: str
    line: int
    col: int


@dataclass(frozen=True)
class CallSite:
    """One call expression, summarized for cross-module rules."""

    name: str  #: dotted callee as written (``np.asarray``, ``span``).
    line: int
    col: int
    arg0_kind: str  #: lambda/name/attr/call/str/none/other.
    arg0_name: str  #: identifier when ``arg0_kind == "name"``.
    kwargs: Tuple[str, ...]
    dtype_repr: str  #: source of the ``dtype=`` keyword, ``""`` if absent.
    str_args: Tuple[str, ...]  #: string literals among args and kwargs.


@dataclass
class FunctionInfo:
    """Per-function facts: calls, spans, loops, and local bindings."""

    name: str
    qualname: str
    line: int
    col: int
    is_method: bool
    is_nested: bool
    params: Tuple[str, ...]
    decorators: Tuple[str, ...] = ()
    calls: List[CallSite] = field(default_factory=list)
    with_calls: List[str] = field(default_factory=list)
    trace_loops: List[Tuple[int, int]] = field(default_factory=list)
    local_funcs: Set[str] = field(default_factory=set)
    local_lambdas: Set[str] = field(default_factory=set)
    local_assigns: Set[str] = field(default_factory=set)

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")


@dataclass
class ModuleInfo:
    """Everything the project phase needs to know about one file."""

    path: str
    module: str  #: dotted name under ``src/``, ``""`` otherwise.
    is_test: bool
    is_entry: bool
    imports: List[ImportBinding] = field(default_factory=list)
    symbols: Dict[str, SymbolDef] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    toplevel_calls: List[CallSite] = field(default_factory=list)

    @property
    def in_library(self) -> bool:
        return self.module.startswith("repro")

    def all_calls(self) -> List[Tuple[Optional[FunctionInfo], CallSite]]:
        """Every call site with its enclosing function (``None`` at
        module level), in source order."""
        sites = [(None, call) for call in self.toplevel_calls]
        for qualname in sorted(self.functions):
            fn = self.functions[qualname]
            sites.extend((fn, call) for call in fn.calls)
        return sorted(sites, key=lambda pair: (pair[1].line, pair[1].col))


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a Name, else ``None``."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def _decorator_name(node: ast.AST) -> Optional[str]:
    """Dotted name of a decorator, unwrapping ``@traced("x")`` calls."""
    if isinstance(node, ast.Call):
        node = node.func
    return _dotted(node)


def _summarize_call(node: ast.Call) -> Optional[CallSite]:
    name = _dotted(node.func)
    if name is None:
        return None
    arg0_kind, arg0_name = "none", ""
    if node.args:
        arg0 = node.args[0]
        if isinstance(arg0, ast.Lambda):
            arg0_kind = "lambda"
        elif isinstance(arg0, ast.Name):
            arg0_kind, arg0_name = "name", arg0.id
        elif isinstance(arg0, ast.Attribute):
            arg0_kind = "attr"
        elif isinstance(arg0, ast.Call):
            arg0_kind = "call"
        elif isinstance(arg0, ast.Constant) and isinstance(arg0.value, str):
            arg0_kind = "str"
        else:
            arg0_kind = "other"
    kwargs = tuple(kw.arg for kw in node.keywords if kw.arg is not None)
    dtype_repr = ""
    for kw in node.keywords:
        if kw.arg == "dtype":
            dtype_repr = ast.unparse(kw.value)
    str_args: List[str] = []
    for arg in list(node.args) + [kw.value for kw in node.keywords]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            str_args.append(arg.value)
    return CallSite(
        name=name,
        line=node.lineno,
        col=node.col_offset + 1,
        arg0_kind=arg0_kind,
        arg0_name=arg0_name,
        kwargs=kwargs,
        dtype_repr=dtype_repr,
        str_args=tuple(str_args),
    )


def _is_trace_loop(node: ast.AST) -> bool:
    """True when a ``for`` iterates something trace-shaped (a name or
    attribute matching :data:`TRACE_NAME` in target or iterable)."""
    assert isinstance(node, (ast.For, ast.AsyncFor))
    for sub in list(ast.walk(node.iter)) + list(ast.walk(node.target)):
        if isinstance(sub, ast.Name) and TRACE_NAME.match(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and TRACE_NAME.match(sub.attr):
            return True
    return False


class _ModuleCollector:
    """Single AST pass filling a :class:`ModuleInfo`.

    Visits in :class:`ast.NodeVisitor` order, but dispatches through the
    per-type :data:`_HANDLERS` table instead of a method-name lookup per
    node: this walk is the lint's hottest Python loop.
    """

    def __init__(self, info: ModuleInfo, package: str) -> None:
        self.info = info
        self.package = package  #: package context for relative imports.
        self._fn_stack: List[FunctionInfo] = []
        self._class_stack: List[str] = []

    def visit(self, node: ast.AST) -> None:
        handler = _HANDLERS.get(type(node))
        if handler is None:
            self.generic_visit(node)
        else:
            handler(self, node)

    def generic_visit(self, node: ast.AST) -> None:
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        self.visit(item)
            elif isinstance(value, ast.AST):
                self.visit(value)

    # -- helpers -------------------------------------------------------------
    @property
    def _current(self) -> Optional[FunctionInfo]:
        return self._fn_stack[-1] if self._fn_stack else None

    def _resolve_relative(self, level: int, module: Optional[str]) -> str:
        if not self.package:
            return module or ""
        parts = self.package.split(".")
        parts = parts[: len(parts) - (level - 1)]
        if module:
            parts.append(module)
        return ".".join(parts)

    def _bind_symbol(self, name: str, kind: str, node: ast.AST) -> None:
        if not self._fn_stack and not self._class_stack:
            self.info.symbols.setdefault(
                name,
                SymbolDef(
                    name=name,
                    kind=kind,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0) + 1,
                ),
            )

    # -- imports -------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            # ``import a.b.c`` binds ``a``; ``import a.b.c as x`` binds
            # the full target.
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.info.imports.append(
                ImportBinding(
                    local=local, module=target, attr="", line=node.lineno
                )
            )
            self._bind_symbol(local, "import", node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = self._resolve_relative(node.level, node.module)
        else:
            base = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.info.imports.append(
                ImportBinding(
                    local=local, module=base, attr=alias.name, line=node.lineno
                )
            )
            self._bind_symbol(local, "import", node)
        self.generic_visit(node)

    # -- definitions ---------------------------------------------------------
    def _visit_function(self, node) -> None:
        if self._fn_stack:
            qualname = self._fn_stack[-1].qualname + ".<locals>." + node.name
        else:
            qualname = ".".join(self._class_stack + [node.name])
        fn = FunctionInfo(
            name=node.name,
            qualname=qualname,
            line=node.lineno,
            col=node.col_offset + 1,
            is_method=bool(self._class_stack) and not self._fn_stack,
            is_nested=bool(self._fn_stack),
            params=tuple(
                arg.arg
                for arg in (
                    node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                )
            ),
            decorators=tuple(
                name
                for name in (
                    _decorator_name(dec) for dec in node.decorator_list
                )
                if name is not None
            ),
        )
        if self._fn_stack:
            self._fn_stack[-1].local_funcs.add(node.name)
        else:
            self._bind_symbol(node.name, "func", node)
        self.info.functions[fn.qualname] = fn
        self._fn_stack.append(fn)
        for stmt in node.body:
            self.visit(stmt)
        self._fn_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._bind_symbol(node.name, "class", node)
        if self._fn_stack:
            # A class inside a function: its methods are not importable.
            self._fn_stack[-1].local_funcs.add(node.name)
            self.generic_visit(node)
            return
        self._class_stack.append(node.name)
        for stmt in node.body:
            self.visit(stmt)
        self._class_stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        kind = "lambda" if isinstance(node.value, ast.Lambda) else "assign"
        for target in node.targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    self._record_assign(sub.id, kind, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            kind = (
                "lambda" if isinstance(node.value, ast.Lambda) else "assign"
            )
            self._record_assign(node.target.id, kind, node)
        self.generic_visit(node)

    def _record_assign(self, name: str, kind: str, node: ast.AST) -> None:
        current = self._current
        if current is not None:
            current.local_assigns.add(name)
            if kind == "lambda":
                current.local_lambdas.add(name)
        else:
            self._bind_symbol(name, kind, node)

    # -- uses ----------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        site = _summarize_call(node)
        if site is not None:
            current = self._current
            if current is not None:
                current.calls.append(site)
            else:
                self.info.toplevel_calls.append(site)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node) -> None:
        current = self._current
        if current is not None:
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    name = _dotted(expr.func)
                    if name is not None:
                        current.with_calls.append(name)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._visit_for(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_for(node)

    def _visit_for(self, node) -> None:
        current = self._current
        if current is not None and _is_trace_loop(node):
            current.trace_loops.append((node.lineno, node.col_offset + 1))
        self.generic_visit(node)


#: AST node type -> ``_ModuleCollector.visit_<Type>``.
_HANDLERS = {
    getattr(ast, name[len("visit_"):]): method
    for name, method in vars(_ModuleCollector).items()
    if name.startswith("visit_")
}


def collect_module_info(ctx: FileContext) -> ModuleInfo:
    """Distill one parsed file into its project-model slice."""
    module = ctx.module_name
    if module and not ctx.path.endswith("/__init__.py"):
        package = module.rsplit(".", 1)[0] if "." in module else ""
    else:
        package = module
    info = ModuleInfo(
        path=ctx.path,
        module=module,
        is_test=ctx.is_test,
        is_entry=ctx.is_entry_point,
    )
    _ModuleCollector(info, package).visit(ctx.tree)
    return info


class ProjectModel:
    """The assembled whole-program view handed to ``check_project``."""

    def __init__(self, infos: Sequence[ModuleInfo]) -> None:
        self.by_path: Dict[str, ModuleInfo] = {}
        self.by_module: Dict[str, ModuleInfo] = {}
        for info in infos:
            self.by_path[info.path] = info
            if info.module:
                self.by_module[info.module] = info
        #: Top-level package names (``repro`` for ``repro.dsp.cwt``).
        self._roots: Set[str] = {
            name.split(".", 1)[0] for name in self.by_module
        }
        self.import_graph: Dict[str, Set[str]] = {}
        for name in sorted(self.by_module):
            info = self.by_module[name]
            targets: Set[str] = set()
            for binding in info.imports:
                target = self.binding_module(binding)
                if target and target in self.by_module and target != name:
                    targets.add(target)
            self.import_graph[name] = targets
        self.reverse_graph: Dict[str, Set[str]] = {
            name: set() for name in self.import_graph
        }
        for name in sorted(self.import_graph):
            for target in sorted(self.import_graph[name]):
                self.reverse_graph[target].add(name)

    # -- import-binding helpers ----------------------------------------------
    def binding_module(self, binding: ImportBinding) -> str:
        """Absolute module a binding makes reachable (submodule-aware:
        ``from repro.util import parallel`` targets ``repro.util.parallel``)."""
        if binding.attr:
            candidate = f"{binding.module}.{binding.attr}"
            if candidate in self.by_module:
                return candidate
        return binding.module

    def binding_for(
        self, module: str, local: str
    ) -> Optional[ImportBinding]:
        info = self.by_module.get(module)
        if info is None:
            return None
        for binding in info.imports:
            if binding.local == local:
                return binding
        return None

    # -- graph queries -------------------------------------------------------
    def transitive_importers(
        self, targets: Sequence[str]
    ) -> Dict[str, str]:
        """Modules that import any target, directly or transitively.

        Returns ``{module: via}`` where ``via`` is the next hop toward a
        target (for human-readable finding messages).
        """
        reached: Dict[str, str] = {}
        frontier = [t for t in targets if t in self.reverse_graph]
        for target in frontier:
            reached.setdefault(target, target)
        while frontier:
            nxt: List[str] = []
            for target in frontier:
                for importer in sorted(self.reverse_graph.get(target, ())):
                    if importer not in reached:
                        reached[importer] = target
                        nxt.append(importer)
            frontier = nxt
        return reached

    # -- symbol / call resolution --------------------------------------------
    def resolve_symbol(
        self, module: str, name: str, _depth: int = 0
    ) -> Optional[Tuple[str, SymbolDef]]:
        """Find the defining module and :class:`SymbolDef` for ``name``
        as seen from ``module``, following re-export chains."""
        if _depth > 8 or module not in self.by_module:
            return None
        info = self.by_module[module]
        sym = info.symbols.get(name)
        if sym is not None and sym.kind != "import":
            return module, sym
        binding = self.binding_for(module, name)
        if binding is None:
            return None
        if not binding.attr:
            return None  # the binding is a module object, not a symbol
        target = binding.module
        if f"{target}.{binding.attr}" in self.by_module:
            return None  # submodule import, not a symbol
        return self.resolve_symbol(target, binding.attr, _depth + 1)

    def resolve_call(self, module: str, dotted: str) -> Optional[str]:
        """Canonical absolute dotted name for a call target, following
        import bindings (``_obs.span`` → ``repro.obs.trace.span``)."""
        head, _, rest = dotted.partition(".")
        binding = self.binding_for(module, head)
        if binding is not None:
            base = self.binding_module(binding)
            if binding.attr and f"{binding.module}.{binding.attr}" not in (
                self.by_module
            ):
                base = f"{binding.module}.{binding.attr}"
            canonical = f"{base}.{rest}" if rest else base
            return self._canonicalize(canonical)
        info = self.by_module.get(module)
        if info is not None and head in info.symbols:
            return self._canonicalize(f"{module}.{dotted}")
        if head in self._roots:
            return self._canonicalize(dotted)
        return None

    def _canonicalize(self, dotted: str, _depth: int = 0) -> str:
        """Follow re-exports so ``repro.obs.span`` becomes
        ``repro.obs.trace.span``."""
        if _depth > 8:
            return dotted
        module, _, attr = dotted.rpartition(".")
        if not module or "." in attr:
            return dotted
        binding = self.binding_for(module, attr)
        if binding is not None and binding.attr:
            target = f"{binding.module}.{binding.attr}"
            if target != dotted and binding.module in self.by_module:
                return self._canonicalize(target, _depth + 1)
        return dotted

    def function(
        self, module: str, name: str
    ) -> Optional[Tuple[str, FunctionInfo]]:
        """Module-level function ``name`` as seen from ``module``,
        following re-export chains; returns (defining module, info)."""
        resolved = self.resolve_symbol(module, name)
        if resolved is None:
            return None
        def_module, sym = resolved
        if sym.kind != "func":
            return None
        fn = self.by_module[def_module].functions.get(sym.name)
        if fn is None or fn.is_method or fn.is_nested:
            return None
        return def_module, fn
