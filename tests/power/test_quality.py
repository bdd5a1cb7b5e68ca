"""Quality screening: detectors, retry policy, acquisition integration."""

import numpy as np
import pytest

from repro.power import (
    Acquisition,
    FaultContext,
    FaultInjector,
    QualityConfig,
    RetryPolicy,
    ScreeningStats,
    TraceScreener,
)
from repro.power.quality import ScreenReport, _max_equal_run
from tests.oracles import max_equal_run

CTX = FaultContext()


def clean_batch(n=16, length=315, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = 5.0 + 2.0 * np.sin(2 * np.pi * t / 63.0)
    return base + rng.normal(0.0, 0.3, (n, length))


class TestDetectors:
    """Each fault family's artifact must trip its matched detector."""

    def screen_with_bad_row(self, corrupt_row):
        windows = clean_batch()
        windows[0] = corrupt_row(windows[0])
        report = TraceScreener().screen(windows, CTX)
        assert not report.passed[0]
        assert report.passed[1:].all()
        return report.reasons[0]

    def test_nonfinite(self):
        def corrupt(row):
            row[7] = np.nan
            return row

        assert "nonfinite" in self.screen_with_bad_row(corrupt)

    def test_clip(self):
        reasons = self.screen_with_bad_row(
            lambda row: np.clip(row * 10.0 + 20.0, *CTX.full_scale)
        )
        assert "clip" in reasons

    def test_flatline(self):
        reasons = self.screen_with_bad_row(
            lambda row: np.full_like(row, 2.0)
        )
        assert "flatline" in reasons

    def test_dropout(self):
        def corrupt(row):
            row[50:110] = row[50]
            return row

        assert "dropout" in self.screen_with_bad_row(corrupt)

    def test_burst(self):
        def corrupt(row):
            row[100:108] += np.array([12.0, -12.0] * 4)
            return row

        assert "burst" in self.screen_with_bad_row(corrupt)

    def test_drift(self):
        def corrupt(row):
            return row + np.linspace(-4.0, 4.0, len(row))

        assert "drift" in self.screen_with_bad_row(corrupt)

    def test_misfire(self):
        def corrupt(row):
            return np.roll(row, 80)

        assert "misfire" in self.screen_with_bad_row(corrupt)

    def test_clean_batch_fully_passes(self):
        report = TraceScreener().screen(clean_batch(n=32), CTX)
        assert report.passed.all()
        assert report.n_flagged == 0
        assert report.counts() == {}

    def test_desync_needs_enough_rows(self):
        # Below desync_min_rows the self-calibrated misfire detector
        # stays off (a median of 4 rows is not a template).
        windows = clean_batch(n=4)
        windows[0] = np.roll(windows[0], 80)
        report = TraceScreener().screen(windows, CTX)
        assert "misfire" not in report.reasons[0]

    def test_fixed_template_overrides_batch_median(self):
        template = clean_batch(n=1, seed=9)[0]
        screener = TraceScreener(template=template)
        windows = clean_batch(n=2)  # too few rows to self-calibrate
        windows[0] = np.roll(windows[0], 80)
        report = screener.screen(windows, CTX)
        assert "misfire" in report.reasons[0]
        assert report.passed[1]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            TraceScreener().screen(np.zeros(8), CTX)

    def test_max_equal_run(self):
        rows = np.array(
            [[1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 6.0], [7.0, 7.0, 8.0, 8.0]]
        )
        np.testing.assert_array_equal(_max_equal_run(rows), [1, 3, 2])

    @pytest.mark.parametrize("length", [1, 2, 3, 315])
    def test_max_equal_run_matches_oracle(self, length):
        """Random integer batches: runs of any length, anywhere."""
        rng = np.random.default_rng(length)
        for levels in (2, 3, 8):
            windows = rng.integers(0, levels, (40, length)).astype(np.float64)
            windows[0] = 4.0  # all equal
            windows[1, : length // 2] = 5.0  # run touching the start
            windows[2, length // 2 :] = 6.0  # run touching the end
            np.testing.assert_array_equal(
                _max_equal_run(windows), max_equal_run(windows)
            )
        assert _max_equal_run(np.zeros((3, length))).tolist() == [length] * 3
        assert _max_equal_run(np.zeros((0, length))).shape == (0,)


class TestRetryPolicy:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RETRIES", "5")
        assert RetryPolicy.from_env().max_attempts == 5

    def test_frozen(self):
        policy = RetryPolicy()
        with pytest.raises(Exception):
            policy.max_attempts = 9  # type: ignore[misc]


class TestScreeningStats:
    def test_merge_and_rates(self):
        a = ScreeningStats(
            n_captured=10, n_faulted=2, n_flagged=2, n_retried=2,
            n_quarantined=1, n_kept=9, reasons={"clip": 2},
        )
        b = ScreeningStats(
            n_captured=10, n_flagged=1, n_kept=10, reasons={"clip": 1, "burst": 1},
        )
        a.merge(b)
        assert a.n_captured == 20 and a.n_kept == 19
        assert a.reasons == {"clip": 3, "burst": 1}
        assert a.quarantine_rate == pytest.approx(0.05)
        assert ScreeningStats().quarantine_rate == 0.0
        assert a.as_dict()["reasons"] == {"clip": 3, "burst": 1}


class TestAcquisitionIntegration:
    """The capture loop: inject → screen → retry → quarantine → report."""

    def test_clean_capture_has_zero_false_positives(self):
        # The conservative-thresholds promise: screening an un-faulted
        # capture must not flag (and certainly not drop) anything.
        acq = Acquisition(seed=5, screener=True)
        windows, _ = acq.capture_class("ADD", 24, 3)
        stats = acq.screening_stats["ADD"]
        assert stats.n_flagged == 0
        assert stats.n_quarantined == 0
        assert stats.n_kept == len(windows) == 24

    def test_faulted_capture_detects_retries_and_keeps_count(self):
        acq = Acquisition(
            seed=5, faults=FaultInjector(rate=0.3), screener=True
        )
        windows, pids = acq.capture_class("ADD", 24, 3)
        stats = acq.screening_stats["ADD"]
        assert stats.n_faulted > 0
        assert stats.n_flagged > 0
        assert stats.n_retried > 0
        assert stats.n_kept == len(windows) == len(pids)
        assert stats.n_kept + stats.n_quarantined == stats.n_captured == 24
        assert stats.reasons  # detector codes were recorded
        report = acq.screening_report()
        assert report["ADD"]["n_captured"] == 24

    def test_faulted_capture_is_deterministic(self):
        def capture():
            acq = Acquisition(
                seed=5, faults=FaultInjector(rate=0.3), screener=True
            )
            return acq.capture_class("ADD", 24, 3)

        windows_a, pids_a = capture()
        windows_b, pids_b = capture()
        np.testing.assert_array_equal(windows_a, windows_b)
        np.testing.assert_array_equal(pids_a, pids_b)

    def test_screened_dataset_exposes_stats_in_meta(self):
        acq = Acquisition(
            seed=5, faults=FaultInjector(rate=0.3), screener=True
        )
        ts = acq.capture_instruction_set(["ADD", "EOR"], 16, 2)
        screening = ts.screening
        assert set(screening) == {"ADD", "EOR"}
        assert screening["ADD"]["n_captured"] == 16
        # Labels track surviving windows even when quarantine dropped rows.
        assert len(ts.traces) == len(ts.labels) == len(ts.program_ids)

    def test_screener_auto_enables_with_faults(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SCREEN", raising=False)
        acq = Acquisition(seed=5, faults=FaultInjector(rate=0.3))
        assert acq.screener is not None
        monkeypatch.setenv("REPRO_FAULT_SCREEN", "0")
        acq = Acquisition(seed=5, faults=FaultInjector(rate=0.3))
        assert acq.screener is None
        # And off by default when no faults are injected.
        monkeypatch.delenv("REPRO_FAULT_SCREEN", raising=False)
        assert Acquisition(seed=5).screener is None

    def test_retry_zero_quarantines_instead(self):
        acq = Acquisition(
            seed=5,
            faults=FaultInjector(rate=0.4),
            screener=True,
            retry_policy=RetryPolicy(max_attempts=0),
        )
        windows, _ = acq.capture_class("ADD", 24, 3)
        stats = acq.screening_stats["ADD"]
        assert stats.n_retried == 0
        assert stats.n_quarantined == stats.n_flagged > 0
        assert len(windows) == 24 - stats.n_quarantined

    def test_mixed_program_labels_track_quarantine(self):
        acq = Acquisition(
            seed=5,
            faults=FaultInjector(rate=0.4),
            screener=True,
            retry_policy=RetryPolicy(max_attempts=0),
        )
        ts = acq.capture_mixed_program(["ADD", "EOR"], 24)
        label = "mixed:ADD,EOR"
        stats = acq.screening_stats[label]
        assert stats.n_quarantined > 0
        assert len(ts.traces) == len(ts.labels) == stats.n_kept
        assert ts.screening[label]["n_quarantined"] == stats.n_quarantined
