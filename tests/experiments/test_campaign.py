"""Campaign engine: grid spec, retry funnel, quarantine, resume, Pareto."""

import multiprocessing
import os
from pathlib import Path

import pytest

from repro.experiments import campaign
from repro.experiments.campaign import (
    CampaignConfig,
    CellRunner,
    GridSpec,
    default_grid,
    evaluate_synthetic,
    pareto_front,
    run_campaign,
)

TINY_AXES = {
    "decimation": (1, 4),
    "omega0": (6.0, 8.0),
    "kl_threshold": ("auto:0.9", "inf"),
    "fault_rate": (0.0, 0.15),
}


def tiny_spec(**overrides):
    axes = dict(TINY_AXES)
    axes.update(overrides)
    return GridSpec.from_axes(axes)


class TransientCellError(RuntimeError):
    """A scripted in-cell failure raised by :class:`FlakyEvaluator`."""


class FlakyEvaluator:
    """Synthetic evaluator with scripted failures, for the retry funnel.

    ``fail_first[cell_id] = n`` makes that cell raise on its first ``n``
    attempts and succeed after.  Attempts are counted in one marker file
    per cell under ``state_dir``, so the count holds across pool
    workers.  ``crash_cell`` calls ``os._exit`` when run in a pool
    worker, killing it, and raises when the parent process runs it (the
    serial salvage pass), so the test process survives.
    """

    def __init__(self, state_dir, fail_first=None, crash_cell=None):
        self.state_dir = str(state_dir)
        self.fail_first = dict(fail_first or {})
        self.crash_cell = crash_cell

    def __call__(self, cell, seed):
        if cell.cell_id == self.crash_cell:
            if multiprocessing.parent_process() is not None:
                os._exit(17)
            raise RuntimeError(f"crash cell {cell.cell_id} run in the parent")
        budget = self.fail_first.get(cell.cell_id, 0)
        if budget:
            marker = Path(self.state_dir) / cell.cell_id
            seen = int(marker.read_text()) if marker.exists() else 0
            if seen < budget:
                marker.write_text(str(seen + 1))
                raise TransientCellError(
                    f"scripted failure {seen + 1}/{budget} of {cell.cell_id}"
                )
        return evaluate_synthetic(cell, seed)


#: Shard size for the failure tests: 4 shards of 4 cells.  The crash
#: cell sits in shard 0 and the transient cells in shards 1-3, so a
#: worker death never discards a transient cell's counted attempt.
SHARD = 4
CELLS = tiny_spec().enumerate()[0]
CRASH = CELLS[1].cell_id
TRANSIENT = {CELLS[5].cell_id: 1, CELLS[10].cell_id: 2, CELLS[15].cell_id: 1}


@pytest.fixture
def flaky(tmp_path, monkeypatch):
    """Register a fresh ``"flaky"`` evaluator; returns its factory.

    Pool workers see the registration because they fork from the test
    process (the ``fork`` start method, Linux's default before 3.14).
    """
    runs = []

    def register(crash=True):
        state = tmp_path / f"flaky-{len(runs)}"
        state.mkdir()
        evaluator = FlakyEvaluator(
            state, TRANSIENT, crash_cell=CRASH if crash else None
        )
        monkeypatch.setitem(campaign.EVALUATORS, "flaky", evaluator)
        runs.append(evaluator)
        return evaluator

    return register


def run_flaky(n_jobs, retries, **overrides):
    return run_campaign(
        CampaignConfig(
            spec=tiny_spec(), evaluator="flaky", n_jobs=n_jobs,
            retries=retries, shard_size=SHARD, **overrides,
        )
    )


class TestGridSpec:
    def test_enumerates_cartesian_product_in_order(self):
        spec = GridSpec.from_axes({"a": (1, 2), "b": ("x", "y")})
        cells, excluded = spec.enumerate()
        assert excluded == 0
        assert [c.param_dict for c in cells] == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_constraints_exclude_and_count(self):
        spec = GridSpec.from_axes(
            {"a": (1, 2, 3)}, constraints=(lambda p: p["a"] != 2,)
        )
        cells, excluded = spec.enumerate()
        assert [c.param_dict["a"] for c in cells] == [1, 3]
        assert excluded == 1
        assert spec.n_raw() == 3

    def test_cell_ids_are_stable_and_order_independent(self):
        forward = GridSpec.from_axes({"a": (1,), "b": (2,)})
        backward = GridSpec.from_axes({"b": (2,), "a": (1,)})
        fwd_cell = forward.enumerate()[0][0]
        bwd_cell = backward.enumerate()[0][0]
        assert fwd_cell.cell_id == bwd_cell.cell_id  # content-addressed
        assert len(fwd_cell.cell_id) == 12

    def test_cell_ids_are_distinct_per_cell(self):
        cells, _ = tiny_spec().enumerate()
        assert len({c.cell_id for c in cells}) == len(cells)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            GridSpec.from_axes({"a": ()})
        with pytest.raises(ValueError, match="at least one axis"):
            GridSpec.from_axes({})

    def test_fingerprint_tracks_grid_identity(self):
        assert tiny_spec().fingerprint() == tiny_spec().fingerprint()
        changed = tiny_spec(decimation=(1, 2))
        assert changed.fingerprint() != tiny_spec().fingerprint()

    def test_default_grids_exclude_unresolvable_band(self):
        cells, excluded = default_grid("bench").enumerate()
        assert excluded > 0
        assert all(
            not (c.param_dict["decimation"] >= 8
                 and c.param_dict["omega0"] >= 12.0)
            for c in cells
        )
        with pytest.raises(KeyError, match="no campaign grid"):
            default_grid("nope")


class TestCellRunner:
    def test_unknown_evaluator_rejected(self):
        with pytest.raises(KeyError, match="unknown evaluator"):
            CellRunner("nope", 1)

    def test_ok_result_carries_metrics(self):
        cell = tiny_spec().enumerate()[0][0]
        runner = CellRunner("synthetic", 7)
        result = runner((cell, 0))
        assert result.status == "ok"
        assert result.attempts == 1
        assert set(result.metrics) == {
            "accuracy", "capture_cost", "inference_cost"
        }

    def test_in_cell_error_becomes_error_result(self, flaky):
        flaky(crash=False)
        cell = CELLS[5]
        runner = CellRunner("flaky", 7)
        result = runner((cell, 0))
        assert result.status == "error"
        assert result.attempts == 1
        assert "TransientCellError" in result.error
        assert not result.metrics
        assert runner((cell, 1)).status == "ok"  # the script allows one


class TestCampaignRun:
    def test_clean_run_completes_every_cell(self):
        result = run_campaign(
            CampaignConfig(spec=tiny_spec(), n_jobs=1, shard_size=5)
        )
        coverage = result.report["coverage"]
        assert coverage["complete"] and coverage["accounted"]
        assert coverage["n_completed"] == 16
        assert len(result.table.rows) == 16
        assert all(r["status"] == "completed" for r in result.table.rows)

    def test_rows_follow_enumeration_order(self):
        result = run_campaign(
            CampaignConfig(spec=tiny_spec(), n_jobs=1, shard_size=3)
        )
        cells, _ = tiny_spec().enumerate()
        assert [r["cell"] for r in result.table.rows] == [
            c.cell_id for c in cells
        ]

    def test_results_independent_of_worker_count(self):
        serial = run_campaign(
            CampaignConfig(spec=tiny_spec(), n_jobs=1, shard_size=4)
        )
        pooled = run_campaign(
            CampaignConfig(spec=tiny_spec(), n_jobs=2, shard_size=4)
        )
        assert serial.table.rows == pooled.table.rows
        assert serial.report["pareto_front"] == pooled.report["pareto_front"]

    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        config = CampaignConfig(
            spec=tiny_spec(), n_jobs=1, shard_size=4,
            checkpoint_dir=tmp_path / "camp",
        )
        baseline = run_campaign(
            CampaignConfig(spec=tiny_spec(), n_jobs=1, shard_size=4)
        )
        first = run_campaign(config)
        resumed = run_campaign(config)  # all four shards replay from disk
        assert first.table.rows == baseline.table.rows
        assert resumed.table.rows == baseline.table.rows
        assert resumed.report["campaign"]["n_shards_resumed"] == 4

    def test_stop_after_shards_skips_and_resume_completes(self, tmp_path):
        config = CampaignConfig(
            spec=tiny_spec(), n_jobs=1, shard_size=4,
            checkpoint_dir=tmp_path / "camp",
        )
        partial = run_campaign(
            CampaignConfig(
                spec=tiny_spec(), n_jobs=1, shard_size=4,
                checkpoint_dir=tmp_path / "camp", stop_after_shards=2,
            )
        )
        coverage = partial.report["coverage"]
        assert coverage["n_completed"] == 8
        assert coverage["n_skipped"] == 8
        assert coverage["accounted"] and not coverage["complete"]
        skipped_rows = [
            r for r in partial.table.rows if r["status"] == "skipped"
        ]
        assert len(skipped_rows) == 8

        finished = run_campaign(config)
        baseline = run_campaign(
            CampaignConfig(spec=tiny_spec(), n_jobs=1, shard_size=4)
        )
        assert finished.table.rows == baseline.table.rows
        assert finished.report["campaign"]["n_shards_resumed"] == 2

    def test_mismatched_grid_refuses_checkpoint_dir(self, tmp_path):
        run_campaign(
            CampaignConfig(
                spec=tiny_spec(), n_jobs=1,
                checkpoint_dir=tmp_path / "camp",
            )
        )
        with pytest.raises(ValueError, match="different run"):
            run_campaign(
                CampaignConfig(
                    spec=tiny_spec(decimation=(1, 2)), n_jobs=1,
                    checkpoint_dir=tmp_path / "camp",
                )
            )



    # The retry/quarantine funnel, driven by FlakyEvaluator's scripted
    # failures on one worker and on a two-worker pool.

    def test_failing_run_accounts_for_every_cell(self, flaky):
        for n_jobs in (1, 2):
            flaky()
            result = run_flaky(n_jobs, retries=0)
            coverage = result.report["coverage"]
            assert coverage["accounted"] and not coverage["n_skipped"]
            assert coverage["n_completed"] + coverage["n_quarantined"] == 16
            quarantined = {
                e["cell_id"]: e for e in result.report["quarantined"]
            }
            # With no retries, every scripted failure is quarantined.
            assert set(quarantined) == {CRASH, *TRANSIENT}
            for cell_id in TRANSIENT:
                entry = quarantined[cell_id]
                assert entry["attempts"] == 1
                assert "TransientCellError" in entry["error"]
                assert entry["params"]
            assert "run in the parent" in quarantined[CRASH]["error"]
            statuses = {r["cell"]: r["status"] for r in result.table.rows}
            assert len(statuses) == 16
            for cell_id, status in statuses.items():
                expected = (
                    "quarantined" if cell_id in quarantined else "completed"
                )
                assert status == expected

    def test_dead_worker_cell_keeps_pool_context(self, flaky):
        flaky()
        result = run_flaky(2, retries=0)
        (entry,) = [
            e for e in result.report["quarantined"] if e["cell_id"] == CRASH
        ]
        assert entry["error"]
        assert entry["pool_context"].startswith("attempt 0: ")
        assert "pool rounds" in entry["pool_context"]
        # The crash cell's shard-mates survive the dead worker.
        shard_mates = {c.cell_id for c in CELLS[:SHARD]} - {CRASH}
        completed = {
            r.cell_id for r in result.results if r.status == "completed"
        }
        assert shard_mates <= completed

    def test_retries_rescue_transient_failures(self, flaky):
        clean = run_campaign(
            CampaignConfig(spec=tiny_spec(), n_jobs=1, shard_size=SHARD)
        )
        for n_jobs in (1, 2):
            flaky(crash=False)
            hostile = run_flaky(n_jobs, retries=0)
            flaky(crash=False)
            patient = run_flaky(n_jobs, retries=3)
            assert hostile.report["coverage"]["n_quarantined"] == len(
                TRANSIENT
            )
            assert patient.report["coverage"]["complete"]
            attempts = {r.cell_id: r.attempts for r in patient.results}
            for cell_id, budget in TRANSIENT.items():
                assert attempts[cell_id] == budget + 1
            assert all(
                attempts[c.cell_id] == 1 for c in CELLS
                if c.cell_id not in TRANSIENT
            )
            # Rescued cells carry the same metrics as a clean run.
            assert [r.metrics for r in patient.results] == [
                r.metrics for r in clean.results
            ]

    def test_backoff_uses_injected_sleep(self, flaky):
        for n_jobs in (1, 2):
            flaky(crash=False)
            slept = []
            run_flaky(n_jobs, retries=2, backoff=0.5, sleep=slept.append)
            # One wait before each retry round: shards 1 and 3 retry
            # once, shard 2 twice (its cell fails two attempts).
            assert len(slept) == 4
            assert all(0.5 * 0.75 <= s <= 1.0 * 1.25 for s in slept)

    def test_cli_waits_the_backoff_knob(self, flaky, monkeypatch, capsys):
        import time

        flaky(crash=False)
        monkeypatch.setenv("REPRO_CAMPAIGN_BACKOFF", "0.5")
        monkeypatch.setenv("REPRO_LEDGER", "0")
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        code = campaign.main([
            "--scale", "smoke", "--evaluator", "flaky", "--n-jobs", "1",
            "--retries", "2", "--shard-size", str(SHARD),
        ])
        assert code == 0
        assert "Campaign" in capsys.readouterr().out
        # The knob's backoff is waited, exactly as --backoff 0.5 would be.
        assert len(slept) == 4
        assert all(0.5 * 0.75 <= s <= 1.0 * 1.25 for s in slept)


class TestParetoReport:
    def test_pareto_front_drops_dominated_points(self):
        points = [
            {"accuracy": 90.0, "capture_cost": 10.0, "inference_cost": 5.0},
            {"accuracy": 80.0, "capture_cost": 10.0, "inference_cost": 5.0},
            {"accuracy": 95.0, "capture_cost": 20.0, "inference_cost": 5.0},
            {"accuracy": 85.0, "capture_cost": 5.0, "inference_cost": 9.0},
        ]
        assert pareto_front(points) == [0, 2, 3]

    def test_identical_points_all_survive(self):
        point = {"accuracy": 1.0, "capture_cost": 1.0, "inference_cost": 1.0}
        assert pareto_front([dict(point), dict(point)]) == [0, 1]

    def test_report_front_is_consistent_and_recommended_tops_it(self):
        result = run_campaign(
            CampaignConfig(spec=tiny_spec(), n_jobs=1)
        )
        front = result.report["pareto_front"]
        assert front
        recommended = result.report["recommended"]
        assert recommended == front[0]
        best_accuracy = max(e["metrics"]["accuracy"] for e in front)
        assert recommended["metrics"]["accuracy"] == best_accuracy
        # No front member may dominate another.
        metrics = [e["metrics"] for e in front]
        assert pareto_front(metrics) == list(range(len(metrics)))

    def test_synthetic_surface_has_nontrivial_tradeoff(self):
        cells, _ = tiny_spec().enumerate()
        metrics = [evaluate_synthetic(c, 2018) for c in cells]
        front = pareto_front(metrics)
        assert 1 < len(front) < len(cells)


class TestObsIntegration:
    def test_campaign_spans_and_counters(self, flaky):
        from repro import obs

        for n_jobs in (1, 2):
            flaky()
            collector = obs.activate()
            try:
                run_flaky(n_jobs, retries=1)
            finally:
                obs.deactivate()
            names = {s.name for s in collector.spans}
            assert {"campaign.run", "campaign.shard", "campaign.cell"} <= names
            snapshot = collector.metrics.snapshot()
            # 16 cells: 13 clean, two transient cells rescued on attempt
            # 1, and the crash cell plus the twice-failing cell
            # quarantined.
            assert snapshot["campaign.cells_completed"]["value"] == 14
            assert snapshot["campaign.cells_quarantined"]["value"] == 2
            assert snapshot["campaign.cell_retries"]["value"] == 4
