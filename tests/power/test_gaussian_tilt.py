"""The tilts' numpy Gaussian low-pass, checked against scipy.ndimage.

``repro.power.device.gaussian_lowpass`` repeats the arithmetic of
``scipy.ndimage.gaussian_filter1d`` (kernel, ``'reflect'`` boundary,
order of operations), so every check here is bit-equality.
"""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter1d

from repro.power.device import (
    ProgramShift,
    SessionShift,
    _gaussian_taps,
    gaussian_lowpass,
)

#: The widths the shifts use, plus a narrower and a wider one.
SIGMAS = sorted(
    {
        ProgramShift.tilt_sigma_samples,
        ProgramShift.tilt2_sigma_samples,
        SessionShift.tilt_sigma_samples,
        SessionShift.tilt2_sigma_samples,
        0.7,
        6.5,
    }
)


def _trace(n, seed):
    return np.random.default_rng(seed).normal(2.0, 3.0, n)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_taps_are_scipys_kernel(sigma):
    radius = int(4.0 * sigma + 0.5)
    taps = _gaussian_taps(sigma)
    assert len(taps) == radius + 1
    impulse = np.zeros(2 * radius + 1)
    impulse[radius] = 1.0
    kernel = gaussian_filter1d(impulse, sigma, mode="constant")
    np.testing.assert_array_equal(taps, kernel[radius:])


@pytest.mark.parametrize("n", [315, 28_888, 241_000])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_bit_equal_on_capture_lengths(sigma, n):
    x = _trace(n, seed=n)
    np.testing.assert_array_equal(
        gaussian_lowpass(x, sigma), gaussian_filter1d(x, sigma)
    )


@pytest.mark.parametrize("sigma", SIGMAS)
def test_bit_equal_on_every_short_length(sigma):
    """Up to ``2 r + 1`` samples the reflection repeats, as in scipy."""
    radius = int(4.0 * sigma + 0.5)
    for n in range(1, 2 * radius + 2):
        x = _trace(n, seed=n)
        np.testing.assert_array_equal(
            gaussian_lowpass(x, sigma), gaussian_filter1d(x, sigma),
            err_msg=f"n={n}",
        )


def test_writes_into_out_and_reuses_its_workspace():
    long, short = _trace(5_000, seed=1), _trace(40, seed=2)
    out = np.empty(5_000)
    assert gaussian_lowpass(long, 2.5, out=out) is out
    np.testing.assert_array_equal(out, gaussian_filter1d(long, 2.5))
    # A shorter call after a longer one sees none of the longer trace.
    np.testing.assert_array_equal(
        gaussian_lowpass(short, 6.5), gaussian_filter1d(short, 6.5)
    )
