"""One workload in this process: set up, run the timed loop, report.

Spawned by ``run.py``; prints ``READY`` once set-up is done (the parent
times set-up up to that line), then one JSON result line.  With
``--setup-only`` it exits after ``READY``.

Untraced (``--trace 0``), operations run back to back until ``--seconds``
have passed (closed loop, one client).  Traced (``--trace 1``), the loop
alternates an untraced and a traced rep of the same inputs; the per-layer
numbers come from the first traced rep and the overhead from the medians.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import ROOT as ROOT_FRAME
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _import_library() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no library sources at {src}")
    sys.path.insert(0, str(src))


#: End-to-end metric -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "windows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sr_group_pct": "%",
}

#: A traced rep with more wall time outside every layer fails.
MAX_UNATTRIBUTED_PCT = 10.0

#: Layer prefixes summed into each share of a traced rep's wall time.
SHARES = {
    "capture": ("isa", "sim", "power", "util"),
    "fit": (
        "dsp.cwt.transform", "dsp.cwt.points", "features.kl_stats",
        "features.select", "features.pca", "features.pipeline", "ml.fit",
    ),
    "compile": ("dsp.cwt.point_operator", "features.compiled.build"),
    "classify": ("features.compiled.classify", "ml.predict"),
}

#: Recognition-rate levels reported per layer (0 where a workload has none).
SR_LEVELS = ("opcode", "rd", "rr", "combined", "mean")

#: Per-layer metric -> unit (every workload reports all of them).
LAYER_UNITS = {
    **{f"{layer}.calls": "count" for layer in (
        "isa.decode", "isa.encode", "sim.run", "power.program_gen",
        "dsp.cwt.transform", "dsp.cwt.point_operator",
        "features.compiled.build", "power.screen", "util.parallel_map",
    )},
    **{f"{layer}.self_ms": "ms" for layer in (
        "isa.decode", "isa.encode", "sim.run", "power.program_gen",
        "power.render", "power.digitize", "power.capture",
        "dsp.cwt.transform", "dsp.cwt.points", "features.kl_stats",
        "features.select", "features.pca", "features.pipeline", "ml.fit",
        "dsp.cwt.point_operator", "features.compiled.build", "core",
        "features.compiled.classify", "ml.predict", "power.faults",
        "power.screen", "util.parallel_map", "experiments",
    )},
    "isa.decode.per_event": "ratio",
    "sim.events": "count",
    "features.points": "count",
    "features.compiled.build_per_level": "ratio",
    "core.abstained": "count",
    "power.retried": "count",
    "power.quarantine_pct": "%",
    "util.parallel.pool_vs_serial": "ratio",
    **{f"sr.{level}_pct": "%" for level in SR_LEVELS},
    **{f"share.{name}_pct": "%" for name in SHARES},
    "unattributed_pct": "%",
    "trace_overhead_pct": "%",
}


class Run:
    """Counts attempts and failures and checks every outcome."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.walls = []
        self.outcomes = []
        self._rows = {}

    def timed(self, i: int):
        """One timed op; returns ``(wall_s, outcome)`` or ``None`` on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = self.workload.op(i)
        except Exception:  # counted as a failed op, reported, loop goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        wall = time.perf_counter() - start
        problems = check(outcome, self._rows)
        if problems:
            for problem in problems:
                print(f"check failed on op {i}: {problem}", file=sys.stderr)
            self.failed += 1
            return None
        self.walls.append(wall)
        self.outcomes.append(outcome)
        return wall, outcome


def check(outcome, rows: dict) -> list:
    """Failed checks of one outcome; ``rows`` remembers earlier SR rows."""
    problems = list(outcome.problems)
    if outcome.windows <= 0:
        problems.append("no windows processed")
    previous = rows.setdefault(outcome.key, outcome.sr)
    if previous != outcome.sr:
        problems.append(
            f"input {outcome.key} gave SR {outcome.sr}, earlier {previous}"
        )
    return problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _mean_sr(outcomes, level: str) -> float:
    values = [o.sr[level] for o in outcomes if level in o.sr]
    return statistics.fmean(values) if values else 0.0


def end_to_end(run: Run, setup_s: float) -> dict:
    windows = sum(o.windows for o in run.outcomes)
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(run.walls),
        "windows_per_s": windows / sum(run.walls),
        "peak_rss_mb": peak_rss_mb(),
        "sr_group_pct": _mean_sr(run.outcomes, "group"),
    }
    return {k: _metric(v, E2E_UNITS[k]) for k, v in metrics.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(stats, main, rep_wall: float, outcomes, overhead: float,
              pool_vs_serial: float) -> dict:
    """Per-layer metrics of one traced rep."""
    values = {}
    for name in LAYER_UNITS:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = stats.calls.get(layer, 0)
        elif field == "self_ms":
            values[name] = 1000.0 * stats.self_sum(layer)
    events = stats.counts.get("sim.events", 0)
    fitted = stats.calls.get("core.train", 0)
    counts = {}
    for outcome in outcomes:
        for key, value in outcome.counts.items():
            counts[key] = counts.get(key, 0) + value
    values.update({
        "isa.decode.per_event": stats.calls.get("isa.decode", 0) / events
        if events else 0.0,
        "sim.events": events,
        "features.points": stats.counts.get("features.points", 0),
        "features.compiled.build_per_level":
            stats.calls.get("features.compiled.build", 0) / fitted
            if fitted else 0.0,
        "core.abstained": counts.get("abstained", 0),
        "power.retried": counts.get("retried", 0),
        "power.quarantine_pct": 100.0 * counts["quarantined"] / counts["captured"]
        if counts.get("captured") else 0.0,
        "util.parallel.pool_vs_serial": pool_vs_serial,
        **{f"sr.{level}_pct": _mean_sr(outcomes, level) for level in SR_LEVELS},
        "unattributed_pct": 100.0 * main.self_s.get(ROOT_FRAME, 0.0) / rep_wall,
        "trace_overhead_pct": overhead,
    })
    for name, prefixes in SHARES.items():
        busy = sum(main.self_sum(p) for p in prefixes)
        values[f"share.{name}_pct"] = 100.0 * busy / rep_wall
    return {k: _metric(v, LAYER_UNITS[k]) for k, v in values.items()}


def timed_loop(run: Run, seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        run.timed(i)
        i += 1
        if time.perf_counter() >= deadline:
            return


def traced_loop(run: Run, seconds: float) -> dict:
    """Alternate untraced and traced reps of the same ops until time is up."""
    ops = range(run.workload.trace_ops)
    untraced, traced = [], []
    first = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        wall = 0.0
        for i in ops:
            result = run.timed(i)
            wall += result[0] if result else math.nan
        untraced.append(wall)
        with Tracer() as tracer:
            outcomes = []
            start = time.perf_counter()
            for i in ops:
                tracer.enter(ROOT_FRAME)
                try:
                    result = run.timed(i)
                finally:
                    tracer.exit()
                if result:
                    outcomes.append(result[1])
            wall = time.perf_counter() - start
        traced.append(wall)
        if first is None:
            first = (tracer, wall, outcomes)
    pool_vs_serial = 0.0
    if run.workload.n_jobs > 1:
        jobs, run.workload.n_jobs = run.workload.n_jobs, 1
        try:
            start = time.perf_counter()
            for i in ops:
                run.timed(i)
            serial = time.perf_counter() - start
        finally:
            run.workload.n_jobs = jobs
        pool_vs_serial = statistics.median(untraced) / serial
    tracer, wall, outcomes = first
    overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1)
    return per_layer(
        tracer.totals(), tracer.main, wall, outcomes, overhead, pool_vs_serial
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    _import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    run = Run(workload)
    correct = True
    if args.trace:
        metrics = traced_loop(run, args.seconds)
        unattributed = metrics["unattributed_pct"]["value"]
        if unattributed > MAX_UNATTRIBUTED_PCT:
            print(f"check failed: {unattributed:.1f} % of the traced rep is "
                  f"unattributed", file=sys.stderr)
            correct = False
    else:
        timed_loop(run, args.seconds)
        metrics = end_to_end(run, setup_s=math.nan) if run.walls else {}
    correct = correct and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
