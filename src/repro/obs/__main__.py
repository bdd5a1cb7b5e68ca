"""CLI for the observability layer: ``python -m repro.obs <command>``.

Subcommands:

* ``report PATH [PATH...]`` — render the flame-style self/cumulative
  time table; multiple files (or shell-unexpanded globs like
  ``'runs/*.jsonl'``) merge into one tree.  ``--json`` for the
  machine-readable aggregate, ``--check`` to validate each file and
  exit 1 with the problem list (CI gates the endtoend smoke trace
  this way).
* ``runs`` — list the run ledger (``--entry`` to filter, ``--last N``
  to bound, ``--json`` for records verbatim).
* ``diff A B`` — compare two ledger runs (ids, unique prefixes, or
  ``last`` / ``last~N``); span self times changing more than
  ``--threshold-pct`` (default 20) are flagged and the exit code is 1
  when any regression survives.
"""

from __future__ import annotations

import argparse
import glob as _glob
import json
import sys
import time
from typing import List, Optional

from .ledger import DIFF_THRESHOLD_PCT, diff_runs, read_ledger, resolve_run
from .report import load_many, render_json, render_text, validate

__all__ = ["main"]


def _expand_paths(patterns: List[str]) -> List[str]:
    """Expand glob patterns (sorted per pattern); literal paths pass through."""
    out: List[str] = []
    for pattern in patterns:
        matches = sorted(_glob.glob(pattern))
        out.extend(matches if matches else [pattern])
    return out


def _cmd_report(args: argparse.Namespace) -> int:
    paths = _expand_paths(args.paths)
    if args.check:
        failed = False
        for path in paths:
            problems = validate(path)
            if problems:
                failed = True
                for problem in problems:
                    sys.stderr.write(f"ERROR: {problem}\n")
            else:
                sys.stderr.write(f"OK: {path} is a valid trace\n")
        return 1 if failed else 0
    try:
        parsed = load_many(paths)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"ERROR: {exc}\n")
        return 1
    sys.stdout.write(render_json(parsed) if args.json else render_text(parsed))
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    records = read_ledger(args.dir)
    if args.entry:
        records = [r for r in records if r.get("entry") == args.entry]
    if args.last:
        records = records[-args.last:]
    if not records:
        sys.stderr.write("no runs recorded\n")
        return 0
    if args.json:
        for record in records:
            sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
        return 0
    sys.stdout.write(
        f"{'run_id':<14} {'when':<20} {'entry':<24} "
        f"{'status':<8} {'dur_s':>8}  git\n"
    )
    for record in records:
        when = time.strftime(
            "%Y-%m-%d %H:%M:%S",
            time.localtime(float(record.get("t", 0.0))),  # type: ignore[arg-type]
        )
        duration = record.get("duration_s")
        sys.stdout.write(
            f"{record.get('run_id', '?'):<14} {when:<20} "
            f"{str(record.get('entry', '?')):<24} "
            f"{str(record.get('status', '?')):<8} "
            f"{duration if duration is not None else '-':>8}  "
            f"{record.get('git_rev', '?')}\n"
        )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    records = read_ledger(args.dir)
    try:
        old = resolve_run(records, args.old)
        new = resolve_run(records, args.new)
    except ValueError as exc:
        sys.stderr.write(f"ERROR: {exc}\n")
        return 2
    result = diff_runs(old, new, threshold_pct=args.threshold_pct)
    if args.json:
        sys.stdout.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(
            f"diff {result['old_run']} -> {result['new_run']} "
            f"(threshold {result['threshold_pct']}%)\n"
        )
        rows = result["rows"]
        if not rows:
            sys.stdout.write("nothing comparable between these runs\n")
        for row in rows:  # type: ignore[union-attr]
            mark = (
                "REGRESSION"
                if row["flagged"] and float(row["pct"]) > 0  # type: ignore[arg-type]
                else "improved"
                if row["flagged"]
                else ""
            )
            sys.stdout.write(
                f"  {row['kind']:<8} {str(row['name']):<44} "
                f"{row['old']:>12} -> {row['new']:>12} "
                f"({row['pct']:+.1f}%) {mark}\n"
            )
    regressions = result["regressions"]
    if regressions:
        sys.stderr.write(
            f"ERROR: {len(regressions)} regression(s) beyond "  # type: ignore[arg-type]
            f"{result['threshold_pct']}%\n"
        )
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect repro observability traces and the run ledger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="aggregate and render one or more JSONL traces"
    )
    report.add_argument(
        "paths",
        nargs="+",
        help="trace files written by --trace (globs like 'dir/*.jsonl' expand)",
    )
    report.add_argument(
        "--json", action="store_true", help="emit the aggregate as JSON"
    )
    report.add_argument(
        "--check",
        action="store_true",
        help="validate each trace and exit non-zero on problems",
    )

    runs = sub.add_parser("runs", help="list the run ledger")
    runs.add_argument(
        "--dir", default=None, help="ledger directory (default: REPRO_LEDGER_DIR)"
    )
    runs.add_argument("--entry", default=None, help="filter by entrypoint name")
    runs.add_argument(
        "--last", type=int, default=None, help="show only the last N runs"
    )
    runs.add_argument(
        "--json", action="store_true", help="emit records as JSONL"
    )

    diff = sub.add_parser(
        "diff", help="compare two ledger runs; exit 1 on perf regression"
    )
    diff.add_argument("old", help="baseline run (id, prefix, last, last~N)")
    diff.add_argument("new", help="candidate run (id, prefix, last, last~N)")
    diff.add_argument(
        "--dir", default=None, help="ledger directory (default: REPRO_LEDGER_DIR)"
    )
    diff.add_argument(
        "--threshold-pct",
        type=float,
        default=DIFF_THRESHOLD_PCT,
        help=f"flag changes beyond this percent (default: {DIFF_THRESHOLD_PCT:g})",
    )
    diff.add_argument(
        "--json", action="store_true", help="emit the full comparison as JSON"
    )

    args = parser.parse_args(argv)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "runs":
        return _cmd_runs(args)
    if args.command == "diff":
        return _cmd_diff(args)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
