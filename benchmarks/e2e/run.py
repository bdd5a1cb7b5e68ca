"""End-to-end benchmark of the side-channel disassembler.

    python3 benchmarks/e2e/run.py --workload profile --seed 2018 --seconds 15 --trace 0

Runs each workload in fresh child processes (``harness.py``).  Untraced,
set-up is timed in three children, from spawn to the end of set-up, and
``setup_s`` is their median; the third child then runs the timed loop.
Traced, one child reports the per-layer metrics.  The last line of
standard output is the JSON result; the exit code is non-zero when an
output check failed or a child crashed.  Without ``--workload`` every
workload runs, one after another, and the last line maps each workload
to its result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
HARNESS = HERE / "harness.py"

WORKLOADS = ("profile", "firmware", "sweep", "faulty")
SETUP_REPS = 3
#: One BLAS thread per process: on a small shared host, multi-threaded BLAS
#: spin-waits against the pool workers and neighbours and makes wall time
#: swing by tens of percent between runs.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
#: Wall-clock limit of one child, in seconds.
CHILD_TIMEOUT = 170.0


class ChildFailed(RuntimeError):
    """A child crashed or timed out before reporting."""


def run_child(argv, setup_only: bool):
    """Run one harness child; return ``(setup_s, result or None, exit code)``."""
    env = {
        k: v
        for k, v in os.environ.items()  # replint: disable=REP001 -- copies the environment for a child process and drops every REPRO_* knob; reads no knob
        if not k.startswith("REPRO_")
    }
    env.update(BLAS_ENV)
    command = [sys.executable, str(HARNESS), *argv]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            line = line.strip()
            if line == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif line:
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    failed = ChildFailed(f"{' '.join(command)} exited with {code}")
    if ready is None or (not setup_only and last is None):
        raise failed
    if setup_only:
        return ready, None, code
    try:
        return ready, json.loads(last), code
    except json.JSONDecodeError:
        raise failed from None


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 quick: bool = False):
    """Result dict and exit code of one workload."""
    argv = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        argv.append("--quick")
    if trace:
        _, result, code = run_child(argv, setup_only=False)
        return result, code
    setups = [run_child(argv, setup_only=True)[0]
              for _ in range(SETUP_REPS - 1)]
    ready, result, code = run_child(argv, setup_only=False)
    if "setup_s" in result["metrics"]:
        result["metrics"]["setup_s"]["value"] = statistics.median(
            setups + [ready]
        )
    return result, code


def _summary(name: str, result: dict) -> str:
    lines = [f"== {name}: correct={result['correct']} "
             f"attempted={result['attempted']} failed={result['failed']}"]
    for metric, entry in result["metrics"].items():
        lines.append(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed-loop length per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for the self-test; not a measurement")
    parser.add_argument("--out", type=Path,
                        help="also write {workload: result} JSON here")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results, worst = {}, 0
    for name in names:
        try:
            result, code = run_workload(
                name, args.seed, args.seconds, args.trace, args.quick
            )
        except ChildFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        results[name] = result
        worst = max(worst, code)
        if not args.workload:
            print(_summary(name, result), flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps(results[args.workload] if args.workload else results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
