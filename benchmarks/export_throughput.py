"""Export throughput numbers to ``BENCH_throughput.json``.

Usage::

    python -m pytest benchmarks/bench_throughput.py \
        --benchmark-json=/tmp/bench_raw.json -q
    python benchmarks/export_throughput.py /tmp/bench_raw.json [--check]

The emitted file is a snapshot: per benchmark, the mean/min wall time
of the run that wrote it, next to its baseline.  It holds one run, not
a history; the committed copy is only as current as its last
regeneration.  Baselines have a provenance, recorded as
``seed_source``:

* ``"frozen"`` — measured on the reference machine before the matching
  fast path landed (:data:`SEED_BASELINE_MS`);
* ``"carried"`` — the benchmark postdates the seed, so its earliest
  recorded mean (carried forward from the previous
  ``BENCH_throughput.json``) serves as the baseline;
* ``"self"`` — first appearance: this run's own mean becomes the
  baseline that later runs carry forward.

Benchmarks that ship with an in-tree serial reference
(``*_reference_throughput`` / ``*_serial_throughput`` twins run in the
same session) additionally get ``speedup_vs_reference`` — a
scale-independent fast-vs-slow ratio from the same machine state, which
is what the training-stack acceptance numbers are read from.

With ``--check``, exits non-zero if any ``"frozen"``-baseline benchmark
falls below 1.0x vs seed, or any benchmark named in
:data:`MIN_REFERENCE_SPEEDUP` falls below its required
``speedup_vs_reference`` — the CI smoke gate against perf regressions.
Carried/self baselines are reported but not gated: they were measured on
whatever machine ran the previous export, so a cross-machine ratio would
flap.

Every export also appends a ``bench.throughput`` record (the per-bench
means) to the run ledger (:mod:`repro.obs.ledger`), building the history
behind ``python -m repro.obs diff``: compare two exports on one machine
with ``python -m repro.obs diff last~1 last``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Frozen baseline means (ms), measured with pytest-benchmark on the
#: reference machine (Intel Xeon @ 2.10GHz, 1 core) before the matching
#: fast path landed.  ``test_capture_class_parallel_throughput`` is
#: frozen at the value from before the workload-size heuristic, when a
#: single-core host paid the worker-pool overhead on every capture.
#: Benchmarks not listed here get a carried-forward baseline (see module
#: docstring).
SEED_BASELINE_MS = {
    "test_classify_batch_throughput": 76.327,
    "test_cwt_full_plane_throughput": 68.984,
    "test_simulator_throughput": 33.540,
    "test_render_throughput": 12.682,
    "test_capture_class_parallel_throughput": 79.364,
}

#: Fast benchmark -> serial-reference benchmark measured in the same run.
REFERENCE_PAIRS = {
    "test_compiled_classify_throughput":
        "test_compiled_classify_reference_throughput",
    "test_dnvp_selector_fit_throughput":
        "test_dnvp_selector_fit_reference_throughput",
    "test_level_train_throughput": "test_level_train_reference_throughput",
    "test_ovo_fit_throughput": "test_ovo_fit_reference_throughput",
    "test_hierarchy_predict_throughput":
        "test_hierarchy_predict_reference_throughput",
    "test_render_throughput": "test_render_serial_throughput",
}

#: Same-machine fast-vs-reference ratios CI requires (``--check``).  The
#: compiled classify path's whole reason to exist is a large constant
#: factor over the staged path, so a collapse below 5x is a regression
#: even when absolute times look fine.
MIN_REFERENCE_SPEEDUP = {
    "test_compiled_classify_throughput": 5.0,
}

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def _prior_baselines(output: Path) -> Dict[str, float]:
    """Earliest recorded mean per benchmark, from the previous export."""
    if not output.exists():
        return {}
    try:
        prior = json.loads(output.read_text())
    except (OSError, ValueError):
        return {}
    baselines: Dict[str, float] = {}
    for name, row in prior.get("benchmarks", {}).items():
        seed = row.get("seed_mean_ms")
        mean = row.get("mean_ms")
        if isinstance(seed, (int, float)):
            baselines[name] = float(seed)
        elif isinstance(mean, (int, float)):
            baselines[name] = float(mean)
    return baselines


def _baseline_for(
    name: str, mean_ms: float, carried: Dict[str, float]
) -> Tuple[float, str]:
    """``(seed_mean_ms, seed_source)`` for one benchmark."""
    frozen = SEED_BASELINE_MS.get(name)
    if frozen is not None:
        return frozen, "frozen"
    if name in carried:
        return carried[name], "carried"
    return mean_ms, "self"


def export(raw_path: str, output: Path = OUTPUT) -> dict:
    raw = json.loads(Path(raw_path).read_text())
    carried = _prior_baselines(output)
    means = {
        bench["name"]: bench["stats"]["mean"] * 1e3
        for bench in raw["benchmarks"]
    }
    results = {}
    for bench in raw["benchmarks"]:
        name = bench["name"]
        mean_ms = bench["stats"]["mean"] * 1e3
        seed_ms, seed_source = _baseline_for(name, mean_ms, carried)
        row = {
            "mean_ms": round(mean_ms, 3),
            "min_ms": round(bench["stats"]["min"] * 1e3, 3),
            "seed_mean_ms": round(seed_ms, 3),
            "seed_source": seed_source,
            "speedup_vs_seed": round(seed_ms / mean_ms, 2),
        }
        reference = REFERENCE_PAIRS.get(name)
        if reference is not None and reference in means:
            row["reference_mean_ms"] = round(means[reference], 3)
            row["speedup_vs_reference"] = round(means[reference] / mean_ms, 2)
        results[name] = row
    document = {
        "machine": raw.get("machine_info", {})
        .get("cpu", {})
        .get("brand_raw", "unknown"),
        "benchmarks": results,
    }
    output.write_text(json.dumps(document, indent=2) + "\n")
    return document


def check(document: dict) -> List[str]:
    """Human-readable failures for the CI gate (empty = pass).

    Gated: ``speedup_vs_seed >= 1.0`` for frozen baselines only, and the
    per-benchmark ``speedup_vs_reference`` floors in
    :data:`MIN_REFERENCE_SPEEDUP`.
    """
    failures = []
    for name, row in document["benchmarks"].items():
        if (
            row.get("seed_source") == "frozen"
            and row["speedup_vs_seed"] < 1.0
        ):
            failures.append(
                f"{name}: {row['speedup_vs_seed']}x vs seed (need >= 1.0)"
            )
        floor = MIN_REFERENCE_SPEEDUP.get(name)
        ratio: Optional[float] = row.get("speedup_vs_reference")
        if floor is not None:
            if ratio is None:
                failures.append(
                    f"{name}: reference twin "
                    f"{REFERENCE_PAIRS[name]} missing from the run"
                )
            elif ratio < floor:
                failures.append(
                    f"{name}: {ratio}x vs reference (need >= {floor}x)"
                )
    return failures


def record_to_ledger(document: dict) -> Optional[dict]:
    """Append this export's means as a ``bench.throughput`` ledger record.

    Best-effort: returns ``None`` (never raises) when :mod:`repro` is
    not importable from this checkout or the ledger is disabled.
    """
    try:
        from repro.obs import ledger
    except ImportError:
        return None
    return ledger.record_run(
        "bench.throughput",
        status="ok",
        bench={
            name: row["mean_ms"]
            for name, row in document["benchmarks"].items()
        },
        extra={"machine": document.get("machine", "unknown")},
    )


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a != "--check"]
    if len(args) != 1:
        sys.exit(__doc__)
    doc = export(args[0])
    for name, row in doc["benchmarks"].items():
        parts = [f"{row['speedup_vs_seed']}x vs seed ({row['seed_source']})"]
        if row.get("speedup_vs_reference"):
            parts.append(f"{row['speedup_vs_reference']}x vs reference")
        print(f"{name}: {row['mean_ms']} ms  ({', '.join(parts)})")
    record_to_ledger(doc)
    if "--check" in sys.argv[1:]:
        failed = check(doc)
        if failed:
            print("FAIL: " + "; ".join(failed))
            sys.exit(1)
        print("OK: all benchmark gates passed")
