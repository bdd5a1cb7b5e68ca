"""Self-test of the end-to-end benchmark (quick sizes; not a measurement).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from harness import E2E_UNITS, LAYER_UNITS

harness._import_library()

import compare  # noqa: E402
import workloads  # noqa: E402
from repro.power.acquisition import Acquisition, ProgramCapture  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ready():
    """One set-up quick workload per name, shared by the tests below."""
    built = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(7, quick=True)
        workload.setup()
        built[name] = workload
    return built


def test_spec_matches_harness():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_emitted_with_unit(ready, name):
    run = harness.Run(ready[name])
    harness.timed_loop(run, seconds=0.0)
    untraced = harness.end_to_end(run, setup_s=1.0)
    traced = harness.traced_loop(run, seconds=0.0)
    assert run.failed == 0
    for metrics, spec in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(metrics) == {m["name"] for m in SPEC[spec]}
        for meta in SPEC[spec]:
            assert metrics[meta["name"]]["unit"] == meta["unit"]
    for meta in SPEC["end_to_end"]:
        assert untraced[meta["name"]]["value"] > 0, meta["name"]
    assert traced["unattributed_pct"]["value"] <= 10.0


def test_checks_fire_on_corrupted_results(ready, monkeypatch):
    run = harness.Run(ready["firmware"])
    assert run.timed(0) is not None
    # The same input must give the same SR row.
    outcome = ready["firmware"].op(0)
    outcome.sr["opcode"] -= 1.0
    assert harness.check(outcome, run._rows)
    # A window lost between capture and disassembly is caught.
    real = Acquisition.capture_program

    def drop_window(self, program):
        capture = real(self, program)
        return ProgramCapture(
            capture.windows[:-1], capture.instructions, capture.events
        )

    monkeypatch.setattr(Acquisition, "capture_program", drop_window)
    assert run.timed(1) is None
    assert run.failed == 1
    # SR under its floor and a raising op both count as failures.
    low = workloads.Outcome(key=9, windows=1, sr={"opcode": 10.0})
    workloads._floor(low, "opcode", 97.0, quick=False)
    assert harness.check(low, {})
    monkeypatch.setattr(ready["firmware"], "op", lambda i: 1 / 0)
    assert run.timed(2) is None
    assert (run.attempted, run.failed) == (3, 2)


def test_run_reports_setup_and_result_line(tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep",
         "--seconds", "0", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["metrics"]["setup_s"]["value"] > 0
    assert json.loads(out.read_text()) == {"sweep": last}


def test_run_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sweep",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("parent, change, better, bound, expected", [
    # wins 10/10 and a gap above the parent's IQR
    ([10.0 + 0.1 * i for i in range(10)], [8.0 + 0.1 * i for i in range(10)],
     "lower", 0.1, "improved"),
    # a 3 % slip inside a 10 % bound
    ([10.0 + 0.01 * i for i in range(10)], [10.3 + 0.01 * i for i in range(10)],
     "lower", 0.1, "no-regression"),
    # a 20 % slip beyond a 10 % bound
    ([10.0 + 0.01 * i for i in range(10)], [12.0 + 0.01 * i for i in range(10)],
     "lower", 0.1, "regressed"),
    # throughput: lower is worse
    ([100.0 + i for i in range(10)], [70.0 + i for i in range(10)],
     "higher", 0.1, "regressed"),
    # spread wider than the bound, sides overlap
    ([5.0, 15.0] * 5, [6.0, 14.0] * 5, "lower", 0.1, "unresolved"),
    # wide spread, but every change run beats every parent run
    ([20.0, 30.0] * 5, [5.0, 10.0] * 5, "lower", 0.1, "improved"),
    ([10.0, 10.1, 10.2, 20.0, 20.0] * 2, [9.9] * 10, "lower", 0.1,
     "no-regression"),
    # a per-layer metric: no bound, no regression verdict
    ([10.0] * 10, [12.0] * 10, "lower", None, "-"),
])
def test_compare_verdicts(parent, change, better, bound, expected):
    assert compare.verdict(parent, change, better, bound)[0] == expected


def test_compare_reads_result_files(tmp_path):
    def write(name, value, failed=0):
        path = tmp_path / name
        path.write_text(json.dumps({"sweep": {
            "correct": True, "attempted": 4, "failed": failed,
            "metrics": {"run_s": {"value": value, "unit": "s"}},
        }}))
        return path

    parent = [write(f"p{i}.json", 5.0 + 0.01 * i) for i in range(10)]
    change = [write(f"c{i}.json", 4.0 + 0.01 * i) for i in range(10)]
    rows = compare.compare(parent, change, SPEC)
    assert [(r[0], r[1], r[4]) for r in rows] == [("sweep", "run_s", "improved")]
    # More failed operations void the gain.
    change = [write(f"f{i}.json", 4.0, failed=1) for i in range(10)]
    assert compare.compare(parent, change, SPEC)[0][4] == "-"
