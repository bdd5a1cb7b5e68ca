"""File walk + two-phase whole-program rule execution for replint.

Every run lints the whole of the given paths, serially and in process.

Phase 1 (per-file): every file is parsed once into a
:class:`~repro.analysis.core.FileContext`; each rule's ``check_file``
runs on it, and the file's :class:`~repro.analysis.project.ModuleInfo`
slice of the project model is collected.

Phase 2 (whole-program): the ``ModuleInfo`` slices are assembled into a
:class:`~repro.analysis.project.ProjectModel` (import graph, symbol
tables, call/def index) and every rule's ``check_project`` hook runs
against it.  Cross-module findings are subject to the owning file's
inline suppressions, exactly like per-file ones.

Last, any ``# replint: disable`` comment that silenced nothing in either
phase is itself reported (REP013).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .core import PARSE_ERROR_CODE, FileContext, Finding, Suppressions
from .project import ModuleInfo, ProjectModel, collect_module_info
from .rules import all_rules
from .rules.suppressions import UNUSED_SUPPRESSION_CODE

__all__ = ["ScanResult", "iter_python_files", "run"]

#: Directories never walked for lintable files: caches, VCS internals,
#: and build output.  Kept explicit so a stray ``build/lib/...`` copy
#: can never shadow real findings.
_EXCLUDED_DIRS = frozenset(
    {
        "__pycache__",
        ".git",
        ".pytest_cache",
        ".mypy_cache",
        ".ruff_cache",
        "build",
        "dist",
    }
)


@dataclass
class ScanResult:
    """Everything one replint run produced."""

    findings: List[Finding]
    n_files: int

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a deterministic sorted list of
    ``.py`` files.

    Cache (``__pycache__``), VCS, and build directories are pruned; the
    result is sorted after normalization so the order never depends on
    filesystem enumeration order.
    """
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in _EXCLUDED_DIRS)
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(f"no such file or directory: {path!r}")
    return sorted(set(f.replace("\\", "/") for f in files))


class _SuppressionLedger:
    """Suppression state for every file plus usage accounting.

    A suppression is *used* when it silences at least one finding in any
    phase; what remains unused at the end becomes REP013 findings.
    """

    def __init__(self) -> None:
        self._suppressions: Dict[str, Suppressions] = {}
        self._used_lines: Dict[str, Set[int]] = {}
        self._used_file: Dict[str, Set[str]] = {}

    def add_file(self, path: str, suppressions: Suppressions) -> None:
        self._suppressions[path] = suppressions
        self._used_lines[path] = set()
        self._used_file[path] = set()

    def filter(self, findings: Sequence[Finding]) -> List[Finding]:
        """Drop suppressed findings, recording which comments fired."""
        kept: List[Finding] = []
        for finding in findings:
            sup = self._suppressions.get(finding.path)
            if sup is None or not sup.is_suppressed(finding):
                kept.append(finding)
                continue
            if finding.code in sup.file_wide:
                self._used_file[finding.path].add(finding.code)
            if finding.line in sup.by_line:
                codes = sup.by_line[finding.line]
                if codes is None or finding.code in codes:
                    self._used_lines[finding.path].add(finding.line)
        return kept

    def unused(self) -> List[Finding]:
        """REP013 findings for every suppression that fired nothing.

        A suppression naming REP013 itself is an explicit opt-out and is
        never reported (see :mod:`.rules.suppressions`).
        """
        findings: List[Finding] = []
        for path in sorted(self._suppressions):
            sup = self._suppressions[path]
            stale: List[Tuple[int, str]] = []
            for line in sorted(set(sup.by_line) - self._used_lines[path]):
                codes = sup.by_line[line]
                if codes is None:
                    label = "disable"
                elif UNUSED_SUPPRESSION_CODE in codes:
                    continue
                else:
                    label = "disable=" + ",".join(sorted(codes))
                message = (
                    f"unused suppression '# replint: {label}': no such "
                    "finding fires on this line; remove the stale waiver"
                )
                stale.append((line, message))
            unused_codes = sup.file_wide - self._used_file[path]
            for code in sorted(unused_codes - {UNUSED_SUPPRESSION_CODE}):
                message = (
                    f"unused suppression '# replint: disable-file={code}': "
                    "the rule never fires in this file; remove the stale "
                    "waiver"
                )
                stale.append((1, message))
            findings.extend(
                Finding(path, line, 1, UNUSED_SUPPRESSION_CODE, message)
                for line, message in stale
            )
        return findings


def run(paths: Sequence[str]) -> ScanResult:
    """Lint every ``.py`` file under ``paths`` and return the reportable
    findings, sorted.  Raises ``FileNotFoundError`` for a missing path."""
    files = iter_python_files(paths)
    rules = all_rules()
    ledger = _SuppressionLedger()
    findings: List[Finding] = []
    infos: List[ModuleInfo] = []

    # ---- phase 1: per-file rules -------------------------------------------
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            ctx = FileContext(path, source, ast.parse(source, filename=path))
        except (OSError, SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            message = f"cannot parse file: {exc}"
            findings.append(Finding(path, line, 1, PARSE_ERROR_CODE, message))
            continue
        ledger.add_file(path, ctx.suppressions)
        infos.append(collect_module_info(ctx))
        for rule in rules:
            findings.extend(ledger.filter(rule.check_file(ctx)))

    # ---- phase 2: whole-program rules --------------------------------------
    project = ProjectModel(infos)
    for rule in rules:
        findings.extend(ledger.filter(rule.check_project(project)))

    findings.extend(ledger.unused())
    return ScanResult(findings=sorted(findings), n_files=len(files))
