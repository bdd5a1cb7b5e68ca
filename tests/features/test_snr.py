"""SNR field tests."""

import numpy as np
import pytest

from repro.dsp.cwt import get_cwt
from repro.features.snr import snr_field, snr_report
from repro.power import Acquisition


class TestSnrField:
    def test_planted_leak_located(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 1, (400, 50))
        labels = np.repeat([0, 1], 200)
        values[labels == 1, 17] += 3.0
        field = snr_field(values, labels)
        assert field.argmax() == 17
        assert field[17] > 1.0
        assert np.median(field) < 0.1

    def test_known_value(self):
        rng = np.random.default_rng(1)
        n = 50_000
        labels = np.repeat([0, 1], n)
        # means +/- 1, unit noise: signal var = 1, noise var = 1 -> SNR 1
        values = rng.normal(0, 1, (2 * n, 1))
        values[labels == 1, 0] += 2.0
        assert snr_field(values, labels)[0] == pytest.approx(1.0, rel=0.05)

    def test_multiclass(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 1, (300, 4))
        labels = np.repeat([0, 1, 2], 100)
        for c in range(3):
            values[labels == c, 2] += 2.0 * c
        field = snr_field(values, labels)
        assert field.argmax() == 2

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            snr_field(np.zeros((10, 3)), np.zeros(10))

    def test_2d_points(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, (200, 6, 8))
        labels = np.repeat([0, 1], 100)
        values[labels == 1, 3, 5] += 4.0
        field = snr_field(values, labels)
        assert field.shape == (6, 8)
        assert np.unravel_index(field.argmax(), field.shape) == (3, 5)


class TestSnrReport:
    def test_on_simulated_traces(self):
        acq = Acquisition(seed=9)
        trace_set = acq.capture_instruction_set(["ADC", "LDS"], 60, 3)
        report = snr_report(trace_set)
        assert report["field"].shape == (trace_set.n_samples,)
        assert report["max"] > 1.0          # a cross-group pair leaks hard
        assert 0.0 < report["exploitable"] <= 1.0
        # The strongest leakage sits in the execute cycle of the window.
        assert report["argmax"][0] >= 100

    def test_cwt_mode(self):
        acq = Acquisition(seed=9)
        trace_set = acq.capture_instruction_set(["ADC", "LDS"], 40, 2)
        report = snr_report(trace_set, use_cwt=True)
        assert report["field"].shape == (50, trace_set.n_samples)
        # The streamed class statistics reproduce the full-plane field.
        plane = get_cwt(trace_set.n_samples).transform(trace_set.traces)
        np.testing.assert_allclose(
            report["field"], snr_field(plane, trace_set.labels),
            rtol=1e-9, atol=0,
        )
