"""Oscilloscope measurement-chain model.

Mirrors the paper's §5.1 setup — Tektronix MDO3102, 2.5 GS/s, 250 MHz
bandwidth, shunt-resistor voltage, sample mode — as a bandwidth-limited,
noisy, quantizing capture stage applied to the model's "analog" trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import signal

from .config import DEFAULT_GEOMETRY, TraceGeometry

__all__ = ["Oscilloscope"]


@dataclass
class Oscilloscope:
    """Bandwidth-limited digitizer.

    Attributes:
        bandwidth_hz: analog front-end -3 dB bandwidth.
        noise_sigma: vertical noise added before filtering (amplifier and
            probe noise), in trace units.
        adc_bits: quantizer resolution; the MDO3102 is an 8-bit scope but
            effective resolution in averaged sample mode is higher, so the
            default models a 10-bit effective chain.
        full_scale: (low, high) of the vertical window.  Samples clip.
        geometry: sampling geometry (shared with the power model).
        trigger_jitter_std: RMS trigger jitter in samples; the capture
            window start shifts by an integer offset per acquisition.
    """

    bandwidth_hz: float = 250e6
    noise_sigma: float = 0.040
    adc_bits: int = 10
    full_scale: tuple = (-6.0, 30.0)
    geometry: TraceGeometry = DEFAULT_GEOMETRY
    trigger_jitter_std: float = 0.5

    def __post_init__(self) -> None:
        nyquist = self.geometry.sample_rate_hz / 2.0
        normalized = min(self.bandwidth_hz / nyquist, 0.99)
        self._filter_ba = signal.butter(4, normalized)

    def digitize(
        self, analog: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Capture an analog trace: noise, bandwidth filter, quantize.

        Args:
            analog: analog power waveform.
            rng: noise generator; omit for a noise-free capture.

        Returns:
            float32 digitized trace, same length as ``analog``.  ``analog``
            itself is left as it was: every step after the filter works in
            place on the filter's output, and the noise is added into the
            freshly drawn noise array.
        """
        trace = np.asarray(analog, dtype=np.float64)
        if rng is not None and self.noise_sigma > 0.0:
            noisy = rng.normal(0.0, self.noise_sigma, trace.shape)
            noisy += trace
            trace = noisy
        b, a = self._filter_ba
        trace = signal.filtfilt(b, a, trace)
        low, high = self.full_scale
        levels = (1 << self.adc_bits) - 1
        step = (high - low) / levels
        np.clip(trace, low, high, out=trace)
        trace -= low
        trace /= step
        np.round(trace, out=trace)
        trace *= step
        trace += low
        return trace.astype(np.float32)

    def trigger_offsets(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Integer sample jitter of ``n`` trigger events, in one draw.

        One ``normal(size=n)`` draw yields the same values, and leaves
        ``rng`` in the same state, as ``n`` scalar draws; ``rint`` rounds
        half to even like Python's ``round``.  Without jitter no number
        is drawn.
        """
        if self.trigger_jitter_std <= 0.0:
            return np.zeros(n, dtype=np.int64)
        jitter = rng.normal(0.0, self.trigger_jitter_std, n)
        return np.rint(jitter).astype(np.int64)
