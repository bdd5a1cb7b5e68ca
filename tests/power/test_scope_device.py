"""Oscilloscope and shift-model tests."""

import numpy as np
import pytest

from repro.power import Oscilloscope, ProgramShift, SessionShift


class TestScope:
    def test_noise_free_capture_close_to_input(self):
        scope = Oscilloscope(noise_sigma=0.0, trigger_jitter_std=0.0)
        t = np.linspace(0, 1, 2000)
        analog = 5.0 + 2.0 * np.sin(2 * np.pi * 3 * t)
        digital = scope.digitize(analog)
        assert np.abs(digital[100:-100] - analog[100:-100]).max() < 0.1

    def test_bandwidth_attenuates_high_frequency(self):
        scope = Oscilloscope(noise_sigma=0.0, bandwidth_hz=100e6)
        n = 4000
        t = np.arange(n)
        # 500 MHz tone at 2.5 GS/s = period of 5 samples
        fast = np.sin(2 * np.pi * t / 5)
        slow = np.sin(2 * np.pi * t / 200)
        fast_out = scope.digitize(fast)
        slow_out = scope.digitize(slow)
        assert fast_out.std() < 0.3 * slow_out.std()

    def test_quantization_step(self):
        scope = Oscilloscope(noise_sigma=0.0, adc_bits=4, full_scale=(0.0, 16.0))
        out = scope.digitize(np.linspace(0, 16, 1000))
        levels = np.unique(np.round(out, 6))
        assert len(levels) <= 16

    def test_clipping(self):
        scope = Oscilloscope(noise_sigma=0.0, full_scale=(-1.0, 1.0))
        out = scope.digitize(np.full(500, 99.0))
        assert out.max() <= 1.0 + 1e-6

    def test_noise_reproducible_with_rng(self):
        scope = Oscilloscope(noise_sigma=0.1)
        analog = np.zeros(500)
        a = scope.digitize(analog, np.random.default_rng(5))
        b = scope.digitize(analog, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_trigger_offset_statistics(self):
        scope = Oscilloscope(trigger_jitter_std=1.0)
        rng = np.random.default_rng(0)
        offsets = scope.trigger_offsets(rng, 500)
        assert offsets.dtype == np.int64
        assert abs(np.mean(offsets)) < 0.3
        assert 0.5 < np.std(offsets) < 1.5
        # One array draw == per-event scalar draws, rounded alike, and
        # the generator ends in the same state.
        scalar = np.random.default_rng(3)
        expected = [int(round(scalar.normal(0.0, 1.0))) for _ in range(64)]
        batch = np.random.default_rng(3)
        assert scope.trigger_offsets(batch, 64).tolist() == expected
        assert batch.random() == scalar.random()

    def test_zero_jitter(self):
        scope = Oscilloscope(trigger_jitter_std=0.0)
        rng = np.random.default_rng(0)
        assert scope.trigger_offsets(rng, 3).tolist() == [0, 0, 0]
        assert rng.random() == np.random.default_rng(0).random()


class TestScopeEdgeCases:
    """Inputs at the edge of the measurement chain's envelope."""

    def test_saturated_input_rails_cleanly(self):
        # An input far beyond the window must rail at the ADC limits on
        # both sides and never produce NaN/inf or overshoot.
        scope = Oscilloscope(noise_sigma=0.0, full_scale=(-2.0, 2.0))
        square = np.where(np.arange(2000) % 200 < 100, 50.0, -50.0)
        out = scope.digitize(square)
        assert np.isfinite(out).all()
        assert out.max() <= 2.0 + 1e-6
        assert out.min() >= -2.0 - 1e-6
        # Both rails are actually reached.
        assert np.isclose(out.max(), 2.0, atol=1e-5)
        assert np.isclose(out.min(), -2.0, atol=1e-5)

    def test_quantization_exact_at_full_scale_corners(self):
        # The rails themselves must be representable codes: digitizing a
        # constant at either limit reproduces it exactly.
        scope = Oscilloscope(noise_sigma=0.0, adc_bits=8, full_scale=(-1.0, 3.0))
        np.testing.assert_allclose(
            scope.digitize(np.full(500, 3.0))[50:-50], 3.0, atol=1e-6
        )
        np.testing.assert_allclose(
            scope.digitize(np.full(500, -1.0))[50:-50], -1.0, atol=1e-6
        )

    def test_quantization_step_size_spans_window(self):
        scope = Oscilloscope(noise_sigma=0.0, adc_bits=6, full_scale=(0.0, 63.0))
        out = scope.digitize(np.linspace(0.0, 63.0, 4000))
        levels = np.unique(np.round(out.astype(np.float64), 6))
        assert len(levels) == 64
        steps = np.diff(levels)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-5)

    def test_zero_amplitude_trace_survives_chain(self):
        # A dead-flat all-zeros trace: the filter/quantizer must return
        # flat zeros, not ringing or NaN (guards the flatline detector's
        # assumptions about what the clean chain can output).
        scope = Oscilloscope(noise_sigma=0.0)
        out = scope.digitize(np.zeros(1000))
        assert np.isfinite(out).all()
        # Flat in, flat out (one code), within half a quantization step
        # of zero.
        assert len(np.unique(out)) == 1
        low, high = scope.full_scale
        step = (high - low) / ((1 << scope.adc_bits) - 1)
        np.testing.assert_allclose(out, 0.0, atol=step / 2 + 1e-9)
        assert out.dtype == np.float32

    def test_single_sample_window_screens_without_crash(self):
        from repro.power import FaultContext, TraceScreener

        report = TraceScreener().screen(np.zeros((3, 1)), FaultContext())
        assert len(report.passed) == 3


class TestShifts:
    def test_program_shift_gain_dc(self):
        shift = ProgramShift(dc_offset=2.0, gain=1.5)
        out = shift.apply(np.ones(300), samples_per_cycle=157)
        np.testing.assert_allclose(out, 3.5, atol=1e-9)

    def test_wobble_period(self):
        shift = ProgramShift(wobble_amplitude=1.0, wobble_period_cycles=2.0)
        baseline = shift.baseline(157 * 4, samples_per_cycle=157)
        # one full period spans 2 cycles = 314 samples
        np.testing.assert_allclose(baseline[0], baseline[314], atol=1e-6)

    def test_tilt_boosts_low_frequencies_only(self):
        shift = ProgramShift(tilt=1.0, tilt_sigma_samples=2.0)
        n = 4000
        t = np.arange(n)
        slow = np.sin(2 * np.pi * t / 400)
        fast = np.sin(2 * np.pi * t / 4)
        slow_out = shift.apply(slow, 157)
        fast_out = shift.apply(fast, 157)
        assert slow_out.std() > 1.8 * slow.std()
        assert fast_out.std() < 1.1 * fast.std()

    def test_sampled_shifts_differ(self):
        rng = np.random.default_rng(1)
        a = ProgramShift.sample(rng)
        b = ProgramShift.sample(rng)
        assert a.dc_offset != b.dc_offset

    def test_session_apply(self):
        session = SessionShift(gain=2.0, offset=-1.0)
        out = session.apply(np.ones(100))
        np.testing.assert_allclose(out, 1.0)

    def test_session_tilt_mechanism_matches_program(self):
        rng = np.random.default_rng(2)
        trace = rng.normal(0, 1, 1000)
        session = SessionShift(tilt=0.8)
        program = ProgramShift(tilt=0.8)
        np.testing.assert_allclose(
            session.apply(trace),
            program.apply(trace, 157) - program.baseline(1000, 157),
            atol=1e-9,
        )
