"""The scope's numpy zero-phase Butterworth, checked against scipy.signal.

``repro.power.scope`` designs and runs its 4th-order Butterworth low-pass
with numpy alone; ``scipy.signal`` is only the oracle here.  The filter
runs small GEMMs whose rounding may follow OpenBLAS's thread count, so
this file is also run with ``OPENBLAS_NUM_THREADS=1``.
"""

import numpy as np
import pytest
from scipy import signal

from repro.power import Oscilloscope
from repro.power.scope import ZeroPhaseButterworth, butterworth_modes

#: The front ends ``src/`` and the tests build: 250 MHz (the default)
#: and 100 MHz at 2.5 GS/s, normalized cutoffs 0.2 and 0.08.
BANDWIDTHS = (250e6, 100e6)
#: ``padlen + 1``, one instruction window, a ``profile`` file, a
#: ``firmware`` program, and lengths in between.
LENGTHS = (16, 315, 2205, 28888, 243000)
#: Normalized cutoffs across the range the constructor accepts, up to
#: its 0.99 cap.
CUTOFFS = tuple(np.geomspace(1e-4, 0.99, 12)) + (0.9, 0.95, 0.98)


def _trace(n: int, seed: int) -> np.ndarray:
    """A capture-like input: offset, slow wander, clock spikes, noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    trace = 8.0 + 3.0 * np.sin(2 * np.pi * t / 4000.0)
    trace += 6.0 * (t % 157 < 12)
    trace += rng.normal(0.0, 1.0, n)
    return trace


def _gap(y: np.ndarray, ref: np.ndarray) -> float:
    """Largest difference relative to the reference's peak."""
    return float(np.abs(y - ref).max() / np.abs(ref).max())


def _normalized(scope: Oscilloscope) -> float:
    return scope.bandwidth_hz / (scope.geometry.sample_rate_hz / 2.0)


class _ScipyLowpass:
    """The scope's filter as ``scipy.signal.filtfilt`` ran it before."""

    def __init__(self, wn: float) -> None:
        self.ba = signal.butter(4, wn)

    def filtfilt(self, x, out=None):
        y = signal.filtfilt(*self.ba, x)
        if out is None:
            return y
        out[:] = y
        return out


class TestDesign:
    @pytest.mark.parametrize("wn", [1e-4, 0.01, 0.08, 0.2, 0.5, 0.99])
    def test_poles_and_gain_are_scipys(self, wn):
        _, poles, gain = signal.butter(4, wn, output="zpk")
        log_poles, _, h0 = butterworth_modes(wn)
        np.testing.assert_allclose(
            np.sort_complex(np.exp(log_poles)),
            np.sort_complex(poles[poles.imag > 0]),
            rtol=0.0,
            atol=1e-15,
        )
        assert h0 == pytest.approx(gain, rel=1e-14)

    @pytest.mark.parametrize("wn", [0.0, -0.2, 1.0, 1.5, float("nan")])
    def test_cutoff_outside_the_unit_interval_raises(self, wn):
        with pytest.raises(ValueError):
            ZeroPhaseButterworth(wn)

    def test_non_positive_bandwidth_raises(self):
        with pytest.raises(ValueError):
            Oscilloscope(bandwidth_hz=0.0)


class TestFrontEnds:
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("bandwidth", BANDWIDTHS)
    def test_matches_filtfilt(self, bandwidth, n):
        scope = Oscilloscope(bandwidth_hz=bandwidth)
        x = _trace(n, n)
        ref = signal.filtfilt(*signal.butter(4, _normalized(scope)), x)
        assert _gap(scope._lowpass.filtfilt(x), ref) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 15])
    def test_too_short_raises_like_filtfilt(self, n):
        x = np.ones(n)
        with pytest.raises(ValueError):
            signal.filtfilt(*signal.butter(4, 0.2), x)
        with pytest.raises(ValueError, match="padlen, which is 15"):
            Oscilloscope().digitize(x)

    def test_shortest_accepted_trace(self):
        scope = Oscilloscope(noise_sigma=0.0)
        assert scope.digitize(np.linspace(0.0, 1.0, 16)).shape == (16,)

    def test_output_may_overwrite_the_input(self):
        lowpass = Oscilloscope()._lowpass
        x = _trace(2205, 3)
        expected = lowpass.filtfilt(x)
        assert lowpass.filtfilt(x, out=x) is x
        np.testing.assert_array_equal(x, expected)

    @pytest.mark.parametrize(
        "out",
        [np.empty(4410)[::2], np.empty(2205, dtype=np.float32), np.empty(2204)],
        ids=["strided", "float32", "short"],
    )
    def test_unusable_output_array_raises(self, out):
        with pytest.raises(ValueError, match="contiguous float64"):
            Oscilloscope()._lowpass.filtfilt(_trace(2205, 3), out=out)

    def test_workspace_reuse_leaves_no_trace(self):
        # A long call grows the scratch; a short one after it must read
        # none of the long call's leftovers.
        lowpass = Oscilloscope()._lowpass
        short = _trace(315, 4)
        first = lowpass.filtfilt(short)
        lowpass.filtfilt(_trace(28888, 5))
        np.testing.assert_array_equal(lowpass.filtfilt(short), first)


class TestCutoffGrid:
    @pytest.mark.parametrize("wn", CUTOFFS, ids=lambda wn: f"{wn:.2e}")
    def test_matches_sosfiltfilt(self, wn):
        # scipy's second-order-section recursion loses digits as the
        # poles near 1, so its own error sets the bound below 0.01.
        x = _trace(2205, 11)
        sos = signal.butter(4, wn, output="sos")
        ref = signal.sosfiltfilt(sos, x, padlen=15)
        bound = 1e-12 * max(1.0, (0.01 / wn) ** 2)
        assert _gap(ZeroPhaseButterworth(wn).filtfilt(x), ref) <= bound

    @pytest.mark.parametrize("wn", [1e-5, 1e-3, 0.08, 0.2, 0.99])
    def test_matches_exact_arithmetic(self, wn):
        mpmath = pytest.importorskip("mpmath")
        x = _trace(600, 12)
        ref = _filtfilt_exact(mpmath, wn, x)
        assert _gap(ZeroPhaseButterworth(wn).filtfilt(x), ref) <= 2e-15


def _filtfilt_exact(mpmath, wn, x, digits=40):
    """``filtfilt`` of ``butter(4, wn)`` in ``digits``-digit arithmetic.

    The poles are designed at full precision; each pass starts in the
    steady state of its first input, as ``lfilter_zi`` does.
    """
    with mpmath.workdps(digits):
        warped = 4 * mpmath.tan(mpmath.pi * mpmath.mpf(wn) / 2)
        sections = []
        for m in (-3, -1):
            s = -mpmath.exp(1j * mpmath.pi * m / 8) * warped
            p = (4 + s) / (4 - s)
            a1, a2 = -2 * p.real, abs(p) ** 2
            k = (1 + a1 + a2) / 4
            sections.append((k, 2 * k, k, a1, a2))

        def one_pass(u):
            start = u[0]
            out = [v - start for v in u]
            for b0, b1, b2, a1, a2 in sections:
                s0 = s1 = mpmath.mpf(0)
                for i, v in enumerate(out):
                    y = b0 * v + s0
                    s0 = b1 * v - a1 * y + s1
                    s1 = b2 * v - a2 * y
                    out[i] = y
            return [v + start for v in out]

        x = [mpmath.mpf(float(v)) for v in x]
        ext = (
            [2 * x[0] - v for v in x[15:0:-1]]
            + x
            + [2 * x[-1] - v for v in x[-2:-17:-1]]
        )
        y = one_pass(one_pass(ext)[::-1])[::-1]
        return np.array([float(v) for v in y[15:-15]])


class TestDigitize:
    @pytest.mark.parametrize("n", [2205, 28888, 243000])
    @pytest.mark.parametrize("bandwidth", BANDWIDTHS)
    def test_bit_equal_to_the_scipy_pipeline(self, monkeypatch, bandwidth, n):
        scope = Oscilloscope(bandwidth_hz=bandwidth)
        scipy_scope = Oscilloscope(bandwidth_hz=bandwidth)
        monkeypatch.setattr(
            scipy_scope, "_lowpass", _ScipyLowpass(_normalized(scope))
        )
        for seed in (0, 1):
            analog = _trace(n, seed + 100)
            ours = scope.digitize(analog, np.random.default_rng(seed))
            theirs = scipy_scope.digitize(analog, np.random.default_rng(seed))
            np.testing.assert_array_equal(ours, theirs)

