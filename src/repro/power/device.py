"""Process variation and environment models.

Three nuisance factors cause the paper's covariate shift problem:

* **device-to-device** variation (§5.6): five target chips classified
  against templates from a sixth training chip;
* **program-to-program** variation (§4): the same instruction measured in
  different program files shows "similar shape but different DC offsets";
* **session-to-session** (time) variation: measurement at different times.

Each factor is a small dataclass sampled from an explicit RNG so that
experiments are reproducible and the factors can be switched on and off
independently in ablations.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Optional

import numpy as np

__all__ = ["DeviceProfile", "ProgramShift", "SessionShift"]

#: Per-thread scratch of :func:`gaussian_lowpass`; see :func:`_workspace`.
_WORKSPACE = threading.local()


@lru_cache(maxsize=16)
def _gaussian_taps(sigma: float) -> np.ndarray:
    """Taps ``w[0..r]`` of the unit-sum Gaussian, centre first.

    ``scipy.ndimage``'s kernel, computed as scipy computes it: radius
    ``r = int(4 sigma + 0.5)``, weights ``exp(-0.5 / sigma**2 * x**2)``
    over ``x = -r..r``, divided by their sum.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    phi = phi / phi.sum()
    taps = phi[radius:].copy()
    taps.setflags(write=False)
    return taps


def _workspace(n: int, radius: int) -> tuple:
    """This thread's reflect-padded line and pair-sum row for ``n`` samples.

    Reused across calls and grown to a power of two, so a long trace
    neither allocates nor faults in fresh pages per call.
    """
    buffers = getattr(_WORKSPACE, "buffers", None)
    size = n + 2 * radius
    if buffers is None or len(buffers[0]) < size:
        capacity = 1 << (size - 1).bit_length()
        buffers = (np.empty(capacity), np.empty(capacity))
        _WORKSPACE.buffers = buffers
    padded, pair = buffers
    return padded[:size], pair[:n]


def gaussian_lowpass(
    x: np.ndarray, sigma: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter1d(x, sigma)`` in numpy, bit for bit.

    Same kernel (:func:`_gaussian_taps`), same ``'reflect'`` boundary
    (``d c b a | a b c d | d c b a``, repeated when the trace is shorter
    than the radius) and the same order of float64 operations: the
    centre tap first, then ``(x[i-j] + x[i+j]) * w[j]`` added from the
    outermost pair inward.

    Args:
        x: 1-D float64 trace.
        sigma: Gaussian standard deviation, in samples.
        out: float64 array of ``x``'s length to write into (may be
            ``x``: the trace is copied into the padded line first).

    Returns:
        ``out``, or a new array when it is omitted.
    """
    taps = _gaussian_taps(float(sigma))
    radius = len(taps) - 1
    n = len(x)
    if out is None:
        out = np.empty(n)
    padded, pair = _workspace(n, radius)
    padded[radius:radius + n] = x
    if n >= radius:
        padded[:radius] = x[:radius][::-1]
        padded[radius + n:] = x[n - radius:][::-1]
    elif n:
        # Reflection repeats with period 2n.
        index = np.arange(-radius, n + radius) % (2 * n)
        padded[:] = x[np.where(index < n, index, 2 * n - 1 - index)]
    np.multiply(padded[radius:radius + n], taps[0], out=out)
    for j in range(radius, 0, -1):
        np.add(
            padded[radius - j:radius - j + n],
            padded[radius + j:radius + j + n],
            out=pair,
        )
        pair *= taps[j]
        out += pair
    return out


def _apply_tilts(trace: np.ndarray, *tilts) -> np.ndarray:
    """Add low-passed copies of the trace, one per (strength, sigma).

    Every copy is filtered from the trace as it was on entry; the sum
    is accumulated into ``trace`` itself, which is returned.
    """
    centered = lowpassed = None
    for strength, sigma in tilts:
        if strength == 0.0:
            continue
        if centered is None:
            centered = trace - trace.mean()
            lowpassed = np.empty_like(centered)
        gaussian_lowpass(centered, sigma, out=lowpassed)
        lowpassed *= strength
        trace += lowpassed
    return trace


@dataclass(frozen=True)
class DeviceProfile:
    """Per-chip process variation.

    Attributes:
        name: label used in experiment reports ("train", "dev1", ...).
        gain: multiplicative mismatch of the whole measurement chain
            (shunt resistor tolerance + amplifier gain).
        offset: additive DC mismatch.
        component_mismatch: per-component relative amplitude mismatch.
        weight_jitter_seed: seed perturbing per-bit weight vectors —
            models transistor-level mismatch in decode/address circuitry.
        weight_jitter: relative standard deviation of that perturbation.
    """

    name: str = "train"
    gain: float = 1.0
    offset: float = 0.0
    component_mismatch: Mapping[str, float] = field(default_factory=dict)
    weight_jitter_seed: int = 0
    weight_jitter: float = 0.0

    @classmethod
    def sample(
        cls,
        name: str,
        rng: np.random.Generator,
        gain_sigma: float = 0.030,
        offset_sigma: float = 0.15,
        component_sigma: float = 0.045,
        weight_jitter: float = 0.035,
        component_names=(),
    ) -> "DeviceProfile":
        """Draw a random chip from the process distribution."""
        mismatch = {
            comp: float(rng.normal(1.0, component_sigma))
            for comp in component_names
        }
        return cls(
            name=name,
            gain=float(rng.normal(1.0, gain_sigma)),
            offset=float(rng.normal(0.0, offset_sigma)),
            component_mismatch=mismatch,
            weight_jitter_seed=int(rng.integers(0, 2**31 - 1)),
            weight_jitter=weight_jitter,
        )

    def component_scale(self, component: str) -> float:
        """Mismatch factor for one microarchitectural component."""
        return self.component_mismatch.get(component, 1.0)


@dataclass(frozen=True)
class ProgramShift:
    """Program-file-level covariate shift (paper §4).

    Real measurements of the same instruction in different program files
    differ mainly by DC offset plus a slow baseline wobble (supply and
    decoupling state depend on surrounding code and upload session).
    """

    dc_offset: float = 0.0
    gain: float = 1.0
    wobble_amplitude: float = 0.0
    wobble_period_cycles: float = 7.0
    wobble_phase: float = 0.0
    #: Low-frequency emphasis: the supply/decoupling impedance seen by the
    #: shunt changes with the surrounding code and upload session, tilting
    #: the spectrum.  Applied as ``trace + tilt * lowpass(trace)``, it
    #: rescales exactly the low-frequency time-frequency region — the
    #: region where the paper's "highest KL peaks" live (Fig. 3).
    tilt: float = 0.0
    tilt_sigma_samples: float = 2.5
    #: Weaker second tilt with a wider passband: it reaches the mid-band
    #: where the robust signatures live, so even CSA-selected features
    #: scale per environment — recoverable only by normalization (§5.5).
    tilt2: float = 0.0
    tilt2_sigma_samples: float = 1.0

    @classmethod
    def sample(
        cls,
        rng: np.random.Generator,
        dc_sigma: float = 1.20,
        gain_sigma: float = 0.04,
        wobble_sigma: float = 0.70,
        tilt_sigma: float = 0.25,
        tilt2_sigma: float = 0.08,
    ) -> "ProgramShift":
        """Draw the shift of one program file."""
        return cls(
            dc_offset=float(rng.normal(0.0, dc_sigma)),
            gain=float(rng.normal(1.0, gain_sigma)),
            wobble_amplitude=float(abs(rng.normal(0.0, wobble_sigma))),
            wobble_period_cycles=float(rng.uniform(5.0, 11.0)),
            wobble_phase=float(rng.uniform(0.0, 2.0 * np.pi)),
            tilt=float(rng.normal(0.0, tilt_sigma)),
            tilt2=float(rng.normal(0.0, tilt2_sigma)),
        )

    def apply(self, analog: np.ndarray, samples_per_cycle: int) -> np.ndarray:
        """Apply gain, spectral tilts and baseline to an analog trace."""
        shifted = _apply_tilts(
            self.gain * np.asarray(analog, dtype=np.float64),
            (self.tilt, self.tilt_sigma_samples),
            (self.tilt2, self.tilt2_sigma_samples),
        )
        shifted += self.baseline(len(shifted), samples_per_cycle)
        return shifted

    def baseline(self, n_samples: int, samples_per_cycle: int) -> np.ndarray:
        """Additive baseline over ``n_samples`` trace points.

        ``dc + amplitude * sin(2π t / period + phase)``, evaluated in
        place in that order.
        """
        wave = np.arange(n_samples, dtype=np.float64)
        wave *= 2.0 * np.pi
        wave /= self.wobble_period_cycles * samples_per_cycle
        wave += self.wobble_phase
        np.sin(wave, out=wave)
        wave *= self.wobble_amplitude
        wave += self.dc_offset
        return wave


@dataclass(frozen=True)
class SessionShift:
    """Measurement-session (time/temperature/setup) drift.

    The drift *mechanisms* match :class:`ProgramShift` (supply-impedance
    spectral tilt, gain, offset) but a fresh session moves further than
    the program-to-program spread inside one profiling campaign — this is
    what makes the paper's "different time" deployment (§4) collapse
    unadapted templates while the CSA-selected features stay usable.
    """

    gain: float = 1.0
    offset: float = 0.0
    noise_scale: float = 1.0
    tilt: float = 0.0
    tilt_sigma_samples: float = 2.5
    tilt2: float = 0.0
    tilt2_sigma_samples: float = 1.0

    @classmethod
    def sample(
        cls,
        rng: np.random.Generator,
        gain_sigma: float = 0.05,
        offset_sigma: float = 0.30,
        noise_jitter: float = 0.10,
        tilt_sigma: float = 0.90,
        tilt2_sigma: float = 0.30,
    ) -> "SessionShift":
        """Draw the drift of one acquisition session."""
        return cls(
            gain=float(rng.normal(1.0, gain_sigma)),
            offset=float(rng.normal(0.0, offset_sigma)),
            noise_scale=float(abs(rng.normal(1.0, noise_jitter))),
            tilt=float(rng.normal(0.0, tilt_sigma)),
            tilt2=float(rng.normal(0.0, tilt2_sigma)),
        )

    def apply(self, analog: np.ndarray) -> np.ndarray:
        """Apply session gain, spectral tilts and offset to a trace."""
        shifted = _apply_tilts(
            self.gain * np.asarray(analog, dtype=np.float64),
            (self.tilt, self.tilt_sigma_samples),
            (self.tilt2, self.tilt2_sigma_samples),
        )
        shifted += self.offset
        return shifted
