"""Compare benchmark results of a parent commit and a change.

    python3 benchmarks/e2e/compare.py --parent p1.json p2.json ... \\
        --change c1.json c2.json ...

Each file is what ``run.py --out`` writes (``{workload: result}``).  Run
``i`` of the parent and run ``i`` of the change form a pair; alternate
which side runs first.  For every metric and workload this prints each
side's median and quartiles, the change's win fraction and a verdict:

* ``improved`` -- the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved`` -- either side's interquartile range, as a share of its
  median, exceeds the metric's bound, and not every change run reads
  better than every parent run;
* ``regressed`` -- the change's median is worse than the parent's by more
  than the bound (a share of the parent's median);
* ``no-regression`` -- otherwise.

Bounds and directions come from ``BENCHMARK.json``; a per-layer metric has
no bound, so it is only ever ``improved`` or ``-``.  Exits 1 when any
metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent, change, better: str, bound):
    """``(verdict, wins, pairs)`` for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, p_median, p3 = quartiles(parent)
    gain = sign * (statistics.median(change) - p_median)
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved", wins, len(pairs)
    if bound is None:
        return "-", wins, len(pairs)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(_spread(parent), _spread(change)) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if -gain > bound * abs(p_median):
        return "regressed", wins, len(pairs)
    return "no-regression", wins, len(pairs)


def load(paths):
    """``{(workload, metric): [values in file order]}`` plus failure counts."""
    series, failed = {}, {}
    for path in paths:
        for workload, result in json.loads(Path(path).read_text()).items():
            failed[workload] = failed.get(workload, 0) + result["failed"]
            for metric, entry in result["metrics"].items():
                series.setdefault((workload, metric), []).append(entry["value"])
    return series, failed


def compare(parent_paths, change_paths, spec):
    """Rows of ``(workload, metric, parent q, change q, wins, pairs, verdict)``."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, parent_failed = load(parent_paths)
    change, change_failed = load(change_paths)
    rows = []
    for key in sorted(parent.keys() & change.keys()):
        workload, metric = key
        meta = metrics.get(metric)
        if meta is None:
            continue
        result = verdict(
            parent[key], change[key], meta["better"], meta.get("bound")
        )
        if (
            result[0] == "improved"
            and change_failed.get(workload, 0) > parent_failed.get(workload, 0)
        ):
            # A gain does not count when more operations failed.
            result = ("-",) + result[1:]
        rows.append((workload, metric, quartiles(parent[key]),
                     quartiles(change[key])) + result)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    rows = compare(args.parent, args.change, spec)
    print(f"{'workload':9s} {'metric':36s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'wins':>6s}  verdict")
    for workload, metric, pq, cq, verdict_, wins, pairs in rows:
        print(f"{workload:9s} {metric:36s} "
              f"{pq[0]:10.4g} {pq[1]:10.4g} {pq[2]:10.4g} "
              f"{cq[0]:10.4g} {cq[1]:10.4g} {cq[2]:10.4g} "
              f"{wins:>3d}/{pairs:<2d}  {verdict_}")
    return 1 if any(row[4] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
