"""Load a JSONL trace and render a flame-style self/cumulative report.

The report aggregates spans by tree *path*: for every path we show call
count, cumulative wall time (time with the span open), self wall time
(cumulative minus direct children), and CPU time — indented to mirror
the span tree, heaviest subtrees first.  Below the tree, the metrics
section lists counters/gauges/histograms plus derived cache hit rates
and worker utilization from :func:`repro.obs.sinks.derive_rates`.

Used three ways:

* ``python -m repro.obs report run.jsonl`` — human-readable table;
* ``... report run.jsonl --json`` — machine-readable aggregate;
* ``... report run.jsonl --check`` — validate the file (schema,
  span/metric consistency) and exit non-zero on problems; CI runs this
  against the endtoend smoke trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .sinks import derive_rates

__all__ = [
    "PathStats",
    "Report",
    "load",
    "load_many",
    "render_json",
    "render_text",
    "validate",
]


@dataclass
class PathStats:
    """Aggregated timings for one span path."""

    path: str
    calls: int = 0
    cum_ms: float = 0.0
    self_ms: float = 0.0
    cpu_ms: float = 0.0
    errors: int = 0

    @property
    def name(self) -> str:
        """Leaf name of the path."""
        return self.path.rsplit("/", 1)[-1]

    @property
    def depth(self) -> int:
        """Nesting depth (0 for root spans)."""
        return self.path.count("/")


@dataclass
class Report:
    """Parsed + aggregated trace: span tree stats and metric values."""

    meta: Dict[str, object] = field(default_factory=dict)
    paths: Dict[str, PathStats] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    n_spans: int = 0

    def ordered_paths(self) -> List[PathStats]:
        """Depth-first order, heaviest (by cumulative time) subtree first."""
        children: Dict[str, List[str]] = {}
        roots: List[str] = []
        for path in self.paths:
            parent = path.rsplit("/", 1)[0] if "/" in path else ""
            if parent and parent in self.paths:
                children.setdefault(parent, []).append(path)
            else:
                roots.append(path)

        def weight(path: str) -> Tuple[float, str]:
            return (-self.paths[path].cum_ms, path)

        out: List[PathStats] = []

        def visit(path: str) -> None:
            out.append(self.paths[path])
            for child in sorted(children.get(path, ()), key=weight):
                visit(child)

        for root in sorted(roots, key=weight):
            visit(root)
        return out

    def rates(self) -> Dict[str, float]:
        """Derived cache hit rates / utilization from the metrics."""
        return derive_rates(self.metrics)


def load(path: str) -> Report:
    """Parse a JSONL trace file into an aggregated :class:`Report`.

    Tolerates truncated final lines (crashed runs) but raises
    ``ValueError`` on structurally invalid records — use
    :func:`validate` for a non-raising check.
    """
    report = Report()
    with open(path, "r", encoding="utf-8") as handle:
        rows = handle.read().splitlines()
    for lineno, raw in enumerate(rows, 1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            line = json.loads(raw)
        except json.JSONDecodeError:
            # A torn final line from a crashed writer is survivable;
            # a torn line mid-file is corruption.
            if lineno == len(rows):
                break
            raise ValueError(f"{path}:{lineno}: invalid JSON") from None
        kind = line.get("type")
        if kind == "meta":
            report.meta = line
        elif kind == "span":
            _fold_span(report, line, f"{path}:{lineno}")
        elif kind in ("counter", "gauge", "histogram"):
            name = line.get("name")
            if not isinstance(name, str) or not name:
                raise ValueError(f"{path}:{lineno}: metric without a name")
            payload = dict(line)
            payload["kind"] = payload.pop("type")
            payload.pop("name")
            report.metrics[name] = payload
        else:
            raise ValueError(
                f"{path}:{lineno}: unknown record type {kind!r}"
            )
    return report


def load_many(paths: List[str]) -> Report:
    """Merge several trace files (e.g. per-shard traces) into one report.

    Path stats sum across files; metrics merge by kind — counters and
    histogram buckets add, gauges keep the last file's value (file
    order, which callers keep deterministic by sorting glob expansions).
    ``meta`` reports the merge itself: file count, summed spans, and
    the max declared duration (shards overlap in time, so summing
    durations would double-count the wall clock).
    """
    if not paths:
        raise ValueError("load_many needs at least one trace file")
    if len(paths) == 1:
        return load(paths[0])
    merged = Report()
    duration = 0.0
    for path in paths:
        part = load(path)
        for span_path, stats in part.paths.items():
            into = merged.paths.get(span_path)
            if into is None:
                into = merged.paths[span_path] = PathStats(path=span_path)
            into.calls += stats.calls
            into.cum_ms += stats.cum_ms
            into.self_ms += stats.self_ms
            into.cpu_ms += stats.cpu_ms
            into.errors += stats.errors
        merged.n_spans += part.n_spans
        for name, payload in part.metrics.items():
            into_payload = merged.metrics.get(name)
            if into_payload is None:
                merged.metrics[name] = dict(payload)
                continue
            kind = payload.get("kind")
            if kind == "counter":
                into_payload["value"] = (
                    float(into_payload.get("value", 0))  # type: ignore[arg-type]
                    + float(payload.get("value", 0))  # type: ignore[arg-type]
                )
            elif kind == "gauge":
                into_payload["value"] = payload.get("value")
            elif kind == "histogram":
                into_payload["counts"] = [
                    a + b
                    for a, b in zip(
                        into_payload.get("counts", []),  # type: ignore[arg-type]
                        payload.get("counts", []),  # type: ignore[arg-type]
                    )
                ]
                into_payload["total"] = (
                    float(into_payload.get("total", 0.0))  # type: ignore[arg-type]
                    + float(payload.get("total", 0.0))  # type: ignore[arg-type]
                )
                into_payload["count"] = (
                    int(into_payload.get("count", 0))  # type: ignore[arg-type]
                    + int(payload.get("count", 0))  # type: ignore[arg-type]
                )
        declared = part.meta.get("duration_s")
        if isinstance(declared, (int, float)):
            duration = max(duration, float(declared))
    merged.meta = {
        "type": "meta",
        "merged": len(paths),
        "n_spans": merged.n_spans,
        "duration_s": round(duration, 6),
    }
    return merged


def _fold_span(report: Report, line: Dict[str, object], where: str) -> None:
    for key in ("path", "wall_ms", "self_ms", "cpu_ms"):
        if key not in line:
            raise ValueError(f"{where}: span record missing {key!r}")
    span_path = str(line["path"])
    stats = report.paths.get(span_path)
    if stats is None:
        stats = report.paths[span_path] = PathStats(path=span_path)
    stats.calls += 1
    stats.cum_ms += float(line["wall_ms"])  # type: ignore[arg-type]
    stats.self_ms += float(line["self_ms"])  # type: ignore[arg-type]
    stats.cpu_ms += float(line["cpu_ms"])  # type: ignore[arg-type]
    if line.get("error"):
        stats.errors += 1
    report.n_spans += 1


def validate(path: str) -> List[str]:
    """Check a trace file; returns a list of problems (empty == valid)."""
    problems: List[str] = []
    try:
        report = load(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    if report.n_spans == 0:
        problems.append("trace contains no spans")
    declared = report.meta.get("n_spans")
    if isinstance(declared, int) and declared != report.n_spans:
        problems.append(
            f"meta declares {declared} spans but file contains {report.n_spans}"
        )
    for name, payload in report.metrics.items():
        if payload["kind"] == "histogram":
            counts = payload.get("counts", [])
            edges = payload.get("edges", [])
            if len(counts) != len(edges) + 1:  # type: ignore[arg-type]
                problems.append(
                    f"histogram {name!r}: {len(counts)} buckets for "  # type: ignore[arg-type]
                    f"{len(edges)} edges"  # type: ignore[arg-type]
                )
    for stats in report.paths.values():
        if stats.self_ms > stats.cum_ms + 1e-6:
            problems.append(
                f"span {stats.path!r}: self time exceeds cumulative time"
            )
    return problems


def render_text(report: Report) -> str:
    """Human-readable report: span tree table + metrics section."""
    lines: List[str] = []
    duration = report.meta.get("duration_s")
    header = f"trace: {report.n_spans} spans"
    if isinstance(duration, (int, float)):
        header += f" over {duration:.2f} s"
    lines.append(header)
    lines.append("")
    lines.append(
        f"{'span':<52} {'calls':>6} {'cum ms':>10} {'self ms':>10} {'cpu ms':>10}"
    )
    lines.append("-" * 92)
    for stats in report.ordered_paths():
        label = "  " * stats.depth + stats.name
        if stats.errors:
            label += f" [!{stats.errors}]"
        if len(label) > 52:
            label = label[:49] + "..."
        lines.append(
            f"{label:<52} {stats.calls:>6} {stats.cum_ms:>10.1f} "
            f"{stats.self_ms:>10.1f} {stats.cpu_ms:>10.1f}"
        )
    rates = report.rates()
    counters = {
        name: payload["value"]
        for name, payload in sorted(report.metrics.items())
        if payload["kind"] == "counter"
    }
    histograms = {
        name: payload
        for name, payload in sorted(report.metrics.items())
        if payload["kind"] == "histogram"
    }
    if counters or rates or histograms:
        lines.append("")
        lines.append("metrics")
        lines.append("-" * 92)
    for name, value in counters.items():
        lines.append(f"  {name:<50} {value:>12}")
    for name, payload in histograms.items():
        count = int(payload.get("count", 0))  # type: ignore[arg-type]
        total = float(payload.get("total", 0.0))  # type: ignore[arg-type]
        mean = total / count if count else 0.0
        lines.append(
            f"  {name:<50} {count:>8} obs, mean {mean:>8.2f}"
        )
    for name, value in sorted(rates.items()):
        lines.append(f"  {name:<50} {value:>12.2%}")
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    """Machine-readable aggregate of the same content as the text report."""
    payload = {
        "meta": report.meta,
        "spans": [
            {
                "path": stats.path,
                "calls": stats.calls,
                "cum_ms": round(stats.cum_ms, 3),
                "self_ms": round(stats.self_ms, 3),
                "cpu_ms": round(stats.cpu_ms, 3),
                "errors": stats.errors,
            }
            for stats in report.ordered_paths()
        ],
        "metrics": report.metrics,
        "rates": report.rates(),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
