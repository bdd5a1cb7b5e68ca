"""Framework for ``replint`` — findings, file contexts, the rule registry.

The checker is deliberately small: a rule is a class with a ``code``
(``REP001``...), a one-line ``description``, and up to two hooks —

* :meth:`Rule.check_file` — per-file AST checks over one
  :class:`FileContext` (its ``nodes`` are the tree walked once);
* :meth:`Rule.check_project` — whole-program checks against the
  assembled :class:`~repro.analysis.project.ProjectModel`.

The runner filters every finding, from either hook, against the owning
file's inline suppressions.  A suppression is a comment on the flagged
line::

    x = time.time()  # replint: disable=REP003 -- wall-clock display only

``disable`` with no ``=CODE`` list silences every rule on that line, and
``# replint: disable-file=REP003`` anywhere in a file silences one rule
for the whole file (the justification text after ``--`` is free-form but
expected by review convention).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .project import ProjectModel

__all__ = [
    "FileContext",
    "Finding",
    "PARSE_ERROR_CODE",
    "RULE_REGISTRY",
    "Rule",
    "Suppressions",
    "iter_call_name",
    "parse_suppressions",
    "register_rule",
]

#: Pseudo-code attached to files the scanner cannot parse at all.
PARSE_ERROR_CODE = "REP000"

_SUPPRESS_RE = re.compile(
    r"#\s*replint:\s*(?P<scope>disable(?:-file)?)"
    r"(?:\s*=\s*(?P<codes>[A-Z0-9]+(?:\s*,\s*[A-Z0-9]+)*))?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message`` (the text reporter's row)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class Suppressions:
    """Inline-comment suppression state for one file."""

    #: line number -> codes silenced there (``None`` = every code).
    by_line: Dict[int, Optional[FrozenSet[str]]] = field(default_factory=dict)
    #: codes silenced for the entire file.
    file_wide: FrozenSet[str] = frozenset()

    def is_suppressed(self, finding: Finding) -> bool:
        if finding.code in self.file_wide:
            return True
        codes = self.by_line.get(finding.line, False)
        if codes is False:  # no comment on that line
            return False
        return codes is None or finding.code in codes  # type: ignore[operator]


def _comment_lines(source_lines: Sequence[str]) -> Dict[int, str]:
    """``{lineno: comment text}`` for every real COMMENT token.

    Tokenizing (rather than scanning physical lines) keeps suppression
    markers inside string literals and docstrings inert — essential now
    that REP013 reports *unused* suppressions: documentation that merely
    mentions the syntax must not register as a stale waiver.  Falls back
    to treating every line as a potential comment if tokenization fails
    (it should not: files reach this point only after ``ast.parse``
    succeeded).
    """
    text = "\n".join(source_lines) + "\n"
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        return {
            tok.start[0]: tok.string
            for tok in tokens
            if tok.type == tokenize.COMMENT
        }
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return dict(enumerate(source_lines, start=1))


def parse_suppressions(source_lines: Sequence[str]) -> Suppressions:
    """Extract ``# replint: disable[...]`` comments (real comments only;
    markers inside string literals do not count).  A file with no line
    matching the marker has none, so it is not tokenized."""
    result = Suppressions()
    if not any(
        "replint" in line and _SUPPRESS_RE.search(line) for line in source_lines
    ):
        return result
    file_wide: set = set()
    for lineno, text in sorted(_comment_lines(source_lines).items()):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        raw_codes = match.group("codes")
        codes = (
            None
            if raw_codes is None
            else frozenset(c.strip() for c in raw_codes.split(","))
        )
        if match.group("scope") == "disable-file":
            # An un-scoped disable-file would turn the checker off
            # wholesale; require explicit codes.
            if codes is not None:
                file_wide.update(codes)
        else:
            result.by_line[lineno] = codes
    result.file_wide = frozenset(file_wide)
    return result


class FileContext:
    """Everything a per-file rule hook needs about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path.replace("\\", "/")
        self.source = source
        self.tree = tree
        #: Every node of ``tree``, walked once and shared by all rules.
        self.nodes: List[ast.AST] = list(ast.walk(tree))
        self.lines: List[str] = source.splitlines()
        self.suppressions = parse_suppressions(self.lines)

    # -- path classification -------------------------------------------------
    @property
    def module_name(self) -> str:
        """Dotted module name for files under a ``src/`` root, else ``""``."""
        parts = self.path.split("/")
        if "src" not in parts:
            return ""
        rel = parts[parts.index("src") + 1 :]
        if not rel or not rel[-1].endswith(".py"):
            return ""
        rel[-1] = rel[-1][: -len(".py")]
        if rel[-1] == "__init__":
            rel.pop()
        return ".".join(rel)

    @property
    def in_library(self) -> bool:
        """True for importable package code under ``src/repro``."""
        return self.module_name.startswith("repro")

    @property
    def is_test(self) -> bool:
        parts = self.path.split("/")
        return "tests" in parts or parts[-1].startswith("test_")

    @property
    def is_entry_point(self) -> bool:
        """``__main__`` modules: runnable, not part of the import surface."""
        return self.path.endswith("/__main__.py")


class Rule:
    """Base class; concrete rules override the hooks they need."""

    code: str = ""
    name: str = ""
    description: str = ""

    def check_file(self, ctx: FileContext) -> List[Finding]:
        """Per-file findings.  Default: none."""
        return []

    def check_project(self, project: "ProjectModel") -> List[Finding]:
        """Whole-program findings against the assembled project model
        (import graph, symbol tables, call/def index).  Runs once, after
        every file is scanned.  Default: none."""
        return []

    def finding(
        self, ctx_or_path: object, node: ast.AST, message: str
    ) -> Finding:
        path = (
            ctx_or_path.path
            if isinstance(ctx_or_path, FileContext)
            else str(ctx_or_path)
        )
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


#: code -> rule class, in registration order.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.code:
        raise ValueError(f"{cls.__name__} has no code")
    if cls.code in RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULE_REGISTRY[cls.code] = cls
    return cls


def iter_call_name(node: ast.AST) -> Optional[str]:
    """Dotted name of a call target (``np.random.seed``), best effort."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None
