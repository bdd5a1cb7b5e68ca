"""CWT correctness tests: localization, linearity, jitter tolerance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import CWT, CwtConfig, get_cwt
from repro.util import parallel


def burst(n, center, period, width, amplitude=1.0):
    t = np.arange(n, dtype=np.float64)
    envelope = np.exp(-0.5 * ((t - center) / width) ** 2)
    return amplitude * envelope * np.cos(2 * np.pi * (t - center) / period)


class TestShapes:
    def test_output_shape(self):
        cwt = CWT(315)
        out = cwt.transform(np.zeros((4, 315)))
        assert out.shape == (4, 50, 315)
        assert out.dtype == np.float32

    def test_single_trace_shape(self):
        cwt = CWT(315)
        assert cwt.transform(np.zeros(315)).shape == (50, 315)

    def test_accepts_lists(self):
        cwt = get_cwt(315)
        trace = np.random.default_rng(2).normal(0, 1, 315)
        single = cwt.transform(trace.tolist())
        np.testing.assert_array_equal(single, cwt.transform(trace))
        batch = cwt.transform([trace.tolist(), [0.0] * 315])
        assert batch.shape == (2, 50, 315)
        np.testing.assert_array_equal(batch[0], single)

    def test_paper_plane_size(self):
        assert CwtConfig().n_scales * 315 == 15750

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            CWT(315).transform(np.zeros((2, 100)))

    def test_blocks_match_full(self):
        cwt = CWT(128)
        rng = np.random.default_rng(0)
        traces = rng.normal(0, 1, (10, 128))
        full = cwt.transform(traces)
        blocked = np.concatenate(
            [cwt.transform(traces[i:i + 3]) for i in range(0, 10, 3)]
        )
        np.testing.assert_allclose(full, blocked, rtol=1e-6)

    def test_transform_points_matches_full(self):
        cwt = CWT(128)
        rng = np.random.default_rng(1)
        traces = rng.normal(0, 1, (5, 128))
        points = [(0, 10), (25, 64), (49, 100), (25, 20)]
        full = cwt.transform(traces)
        sparse = cwt.transform_points(traces, points)
        for col, (j, k) in enumerate(points):
            np.testing.assert_allclose(
                sparse[:, col], full[:, j, k], rtol=1e-5
            )


class TestTransformInto:
    """``transform(traces, out=buf)`` writes the allocating call's bits."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bit_identical_to_allocating_call(self, monkeypatch, workers):
        monkeypatch.setattr(parallel, "usable_cores", lambda: workers)
        monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
        cwt = get_cwt(315)
        traces = np.random.default_rng(5).normal(0, 1, (70, 315))
        expected = cwt.transform(traces)
        buffer = np.full((90, 50, 315), np.nan, dtype=np.float32)
        images = cwt.transform(traces, out=buffer[:70])
        np.testing.assert_array_equal(images, expected)
        assert np.isnan(buffer[70:]).all()

    def test_returns_out_itself(self):
        cwt = get_cwt(128)
        out = np.empty((3, 50, 128), dtype=np.float32)
        assert cwt.transform(np.zeros((3, 128)), out=out) is out

    @pytest.mark.parametrize(
        "shape, dtype",
        [
            ((3, 50, 127), np.float32),
            ((4, 50, 128), np.float32),
            ((3, 49, 128), np.float32),
            ((50, 128), np.float32),
            ((3, 50, 128), np.float64),
        ],
    )
    def test_wrong_shape_or_dtype_raises(self, shape, dtype):
        cwt = get_cwt(128)
        with pytest.raises(ValueError, match="out must be"):
            cwt.transform(np.zeros((3, 128)), out=np.empty(shape, dtype))

    def test_single_trace(self):
        cwt = get_cwt(128)
        trace = np.random.default_rng(6).normal(0, 1, 128)
        expected = cwt.transform(trace)
        assert expected.shape == (50, 128)
        np.testing.assert_array_equal(expected, cwt.transform(trace[None])[0])
        out = np.empty((50, 128), dtype=np.float32)
        assert cwt.transform(trace, out=out) is out
        np.testing.assert_array_equal(out, expected)
        with pytest.raises(ValueError, match="out must be"):
            cwt.transform(trace, out=np.empty((1, 50, 128), np.float32))


class TestLocalization:
    def test_energy_at_burst_location(self):
        cwt = CWT(315)
        trace = burst(315, center=150, period=8, width=12)
        image = cwt.transform(trace)
        j, k = np.unravel_index(np.argmax(image), image.shape)
        # time localization within the burst
        assert 130 <= k <= 170
        # scale localization near period * omega0 / (2 pi)
        expected_scale = 8 * cwt.config.omega0 / (2 * np.pi)
        assert 0.6 * expected_scale <= cwt.scales[j] <= 1.7 * expected_scale

    def test_scale_separates_two_periods(self):
        cwt = CWT(315)
        slow = burst(315, 100, period=24, width=20)
        fast = burst(315, 220, period=5, width=10)
        image = cwt.transform(slow + fast)
        scale_fast = np.argmax(image[:, 220])
        scale_slow = np.argmax(image[:, 100])
        assert cwt.scales[scale_slow] > 2.5 * cwt.scales[scale_fast]

    def test_dc_invisible(self):
        """Zero-mean wavelets ignore DC offsets (why CSA needs more).

        A DC offset over a finite window is a boxcar, so the window edges
        do leak into large scales; away from the edges and at scales whose
        support stays inside the window, the offset is invisible.
        """
        cwt = CWT(315)
        rng = np.random.default_rng(2)
        trace = rng.normal(0, 1, 315)
        base = cwt.transform(trace)
        shifted = cwt.transform(trace + 7.5)
        small_scales = cwt.scales <= 20
        interior = (small_scales, slice(65, 250))
        np.testing.assert_allclose(
            base[interior], shifted[interior], atol=0.15
        )

    def test_magnitude_jitter_tolerance(self):
        """|CWT| barely moves under 1-sample trigger jitter."""
        cwt = CWT(315)
        trace = burst(315, 150, period=8, width=10)
        a = cwt.transform(trace)
        b = cwt.transform(np.roll(trace, 1))
        peak = a.max()
        j, k = np.unravel_index(np.argmax(a), a.shape)
        assert abs(a[j, k] - b[j, k]) < 0.12 * peak


class TestLinearity:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.5, 4.0))
    def test_property_scaling(self, gain):
        cwt = CWT(64, CwtConfig(n_scales=8, scale_max=32))
        rng = np.random.default_rng(3)
        trace = rng.normal(0, 1, 64)
        base = cwt.transform(trace)
        scaled = cwt.transform(gain * trace)
        np.testing.assert_allclose(scaled, gain * base, rtol=1e-4, atol=1e-6)
