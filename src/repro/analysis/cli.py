"""Command-line interface for replint.

Usage::

    python -m repro.analysis [PATH ...]           # lint (default roots)
    python -m repro.analysis --list-rules         # what gets checked
    python -m repro.analysis --check-docs         # lint + README table in sync?
    python -m repro.analysis --fix-docs           # rewrite the README table

Default roots are every one of ``src``, ``tests``, ``benchmarks`` that
exists — benchmarks joins the walk because the bench-harness knobs are
read there and REP012 judges knob liveness whole-program.

Every run lints the whole of its paths, serially, in one process.

Exit status: 0 clean, 1 findings (or docs drift), 2 usage/IO errors
(missing path, no lint roots, unreadable README).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from .core import RULE_REGISTRY
from .docs import check_knob_table, sync_knob_table
from .reporters import render_text
from .runner import run

__all__ = ["build_parser", "default_paths", "main"]


def default_paths() -> List[str]:
    """The lint roots that exist in the current directory."""
    return [p for p in ("src", "tests", "benchmarks") if os.path.isdir(p)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "replint: AST-based invariant checks for the reproduction — "
            "per-file rules (environment access, determinism, "
            "accumulation dtypes, import layering, exception hygiene, "
            "printing, metric names) plus whole-program rules over the "
            "project model (dtype flow, parallel safety, span coverage, "
            "knob liveness)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=(
            "files or directories to lint (default: src tests benchmarks, "
            "whichever exist)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule set and exit",
    )
    parser.add_argument(
        "--check-docs",
        action="store_true",
        help="also verify the README knob table matches the registry",
    )
    parser.add_argument(
        "--fix-docs",
        action="store_true",
        help="rewrite the README knob table from the registry and exit",
    )
    parser.add_argument(
        "--readme",
        default="README.md",
        help="README path for --check-docs/--fix-docs (default: README.md)",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for code in sorted(RULE_REGISTRY):
        cls = RULE_REGISTRY[code]
        lines.append(f"{code} [{cls.name}] {cls.description}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        sys.stdout.write(_list_rules())
        return 0

    if args.fix_docs:
        try:
            with open(args.readme, "r", encoding="utf-8") as handle:
                text = handle.read()
            fixed = sync_knob_table(text)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"replint: {exc}\n")
            return 2
        if fixed != text:
            with open(args.readme, "w", encoding="utf-8") as handle:
                handle.write(fixed)
            sys.stdout.write(f"replint: updated knob table in {args.readme}\n")
        else:
            sys.stdout.write("replint: knob table already in sync\n")
        return 0

    status = 0

    if args.check_docs:
        try:
            with open(args.readme, "r", encoding="utf-8") as handle:
                error = check_knob_table(handle.read())
        except OSError as exc:
            sys.stderr.write(f"replint: {exc}\n")
            return 2
        if error is not None:
            sys.stderr.write(f"replint: {error}\n")
            status = 1
        else:
            sys.stdout.write("replint: README knob table in sync\n")

    paths = args.paths if args.paths else default_paths()
    if not paths:
        sys.stderr.write(
            "replint: no lint roots found (src/tests/benchmarks) and no "
            "paths given\n"
        )
        return 2

    try:
        result = run(paths)
    except FileNotFoundError as exc:
        sys.stderr.write(f"replint: {exc}\n")
        return 2
    sys.stdout.write(render_text(result))
    if not result.ok:
        status = 1
    return status
