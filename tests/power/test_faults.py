"""Fault-injection substrate: determinism, artifacts, composition."""

import numpy as np
import pytest

from repro.power import FaultContext, FaultInjector, Oscilloscope
from repro.power.faults import (
    BaselineDriftFault,
    BurstNoiseFault,
    ClippingFault,
    DropoutFault,
    FlatlineFault,
    TriggerMisfireFault,
    default_faults,
)

CTX = FaultContext()


def clean_batch(n=16, length=315, seed=0):
    """Sine + mild noise, comfortably inside the vertical window."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = 5.0 + 2.0 * np.sin(2 * np.pi * t / 63.0)
    return (base + rng.normal(0.0, 0.3, (n, length))).astype(np.float32)


class TestFaultContext:
    def test_span(self):
        assert CTX.span == pytest.approx(36.0)

    def test_from_scope(self):
        scope = Oscilloscope(full_scale=(-2.0, 4.0))
        ctx = FaultContext.from_scope(scope)
        assert ctx.full_scale == (-2.0, 4.0)
        assert ctx.samples_per_cycle == scope.geometry.samples_per_cycle


class TestFaultFamilies:
    """Each family must leave its characteristic, detectable artifact."""

    def apply(self, fault, seed=3):
        window = clean_batch(n=1)[0].astype(np.float64)
        out = fault.apply(window, np.random.default_rng(seed), CTX)
        assert out.shape == window.shape
        assert np.isfinite(out).all()  # digitizers emit garbage, not NaN
        return window, out

    def test_clip_rails(self):
        _, out = self.apply(ClippingFault())
        low, high = CTX.full_scale
        eps = 0.004 * CTX.span
        railed = (out <= low + eps) | (out >= high - eps)
        assert railed.mean() > 0.04

    def test_misfire_shifts_content(self):
        window, out = self.apply(TriggerMisfireFault())
        # Edge samples are held, interior content is displaced.
        assert not np.allclose(out, window)
        assert np.std(out) > 0.1  # not a flatline; still signal-shaped

    def test_dropout_leaves_equal_run(self):
        from repro.power.quality import _max_equal_run

        window, out = self.apply(DropoutFault())
        assert _max_equal_run(out[None, :])[0] >= 24
        assert _max_equal_run(window[None, :])[0] < 24

    def test_burst_steps_exceed_slew(self):
        window, out = self.apply(BurstNoiseFault())
        threshold = 0.18 * CTX.span
        assert (np.abs(np.diff(out)) > threshold).sum() >= 2
        assert (np.abs(np.diff(window)) > threshold).sum() == 0

    def test_flatline_collapses_std(self):
        _, out = self.apply(FlatlineFault())
        assert out.std() == pytest.approx(0.0)
        low, high = CTX.full_scale
        assert low <= out[0] <= high

    def test_drift_ramps_baseline(self):
        _, out = self.apply(BaselineDriftFault())
        # Fitted slope across the window moves > drift threshold.
        t = np.arange(len(out), dtype=np.float64)
        t -= t.mean()
        slope = (out - out.mean()) @ t / (t @ t)
        assert abs(slope) * len(out) > 0.15 * CTX.span

    def test_faults_never_mutate_input(self):
        window = clean_batch(n=1)[0].astype(np.float64)
        for fault in default_faults():
            before = window.copy()
            fault.apply(window, np.random.default_rng(0), CTX)
            np.testing.assert_array_equal(window, before)


class TestFaultInjector:
    def test_rate_validated(self):
        with pytest.raises(ValueError):
            FaultInjector(rate=-0.1)
        with pytest.raises(ValueError):
            FaultInjector(rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(rate=0.5, faults=())

    def test_corrupt_is_deterministic(self):
        windows = clean_batch()
        injector = FaultInjector(rate=0.5)
        out_a, applied_a = injector.corrupt(
            windows, np.random.default_rng(7), CTX
        )
        out_b, applied_b = injector.corrupt(
            windows, np.random.default_rng(7), CTX
        )
        np.testing.assert_array_equal(out_a, out_b)
        assert applied_a == applied_b

    def test_corrupt_returns_copy_and_names(self):
        windows = clean_batch()
        before = windows.copy()
        injector = FaultInjector(rate=1.0)
        out, applied = injector.corrupt(
            windows, np.random.default_rng(1), CTX
        )
        np.testing.assert_array_equal(windows, before)
        assert out.dtype == np.float32
        names = {fault.name for fault in default_faults()}
        assert all(name in names for name in applied)

    def test_rate_zero_touches_nothing(self):
        windows = clean_batch()
        out, applied = FaultInjector(rate=0.0).corrupt(
            windows, np.random.default_rng(1), CTX
        )
        np.testing.assert_array_equal(out, windows)
        assert applied == [""] * len(windows)
