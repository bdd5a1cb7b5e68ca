"""Seeded, composable capture-fault injection (the chaos substrate).

Real side-channel acquisition fails in characteristic ways long before
the classifier sees a trace: the vertical window is mis-ranged and the
ADC saturates, the trigger fires on the wrong edge, the scope's deep
memory drops a block of samples, a ground loop injects a noise burst,
a probe goes open-circuit and the channel flatlines, or the bench
drifts thermally through a capture campaign.  The collection-factors
literature (arXiv:2204.04766) finds these *collection* defects dominate
disassembly accuracy before modelling does, so a reproduction that only
ever sees pristine traces is silently optimistic.

This module corrupts simulated windows the same way.  Every fault is a
small, parameterized transform drawn from an explicit rng, so injection
is bit-for-bit reproducible (and independent of worker count — the
acquisition derives one fault rng per program file per attempt).  Faults
never produce NaN/inf: real digitizers emit in-range garbage, not
missing values, and the screening layer (:mod:`repro.power.quality`)
must earn its detections.

Enable via ``Acquisition(faults=FaultInjector(rate=...))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULT_GEOMETRY, TraceGeometry

__all__ = [
    "BaselineDriftFault",
    "BurstNoiseFault",
    "ClippingFault",
    "DropoutFault",
    "FaultContext",
    "FaultInjector",
    "FlatlineFault",
    "TraceFault",
    "TriggerMisfireFault",
    "default_faults",
]


@dataclass(frozen=True)
class FaultContext:
    """Measurement-chain facts a fault transform may need.

    Attributes:
        full_scale: the scope's vertical window ``(low, high)``; clipping
            faults saturate against these rails and amplitude-scaled
            faults size themselves relative to the span.
        samples_per_cycle: clock-cycle pitch in samples (trigger-misfire
            offsets are drawn in cycle units).
    """

    full_scale: Tuple[float, float] = (-6.0, 30.0)
    samples_per_cycle: int = DEFAULT_GEOMETRY.samples_per_cycle

    @property
    def span(self) -> float:
        """Full-scale vertical span."""
        low, high = self.full_scale
        return high - low

    @classmethod
    def from_scope(
        cls, scope, geometry: Optional[TraceGeometry] = None
    ) -> "FaultContext":
        """Derive the context from an :class:`Oscilloscope`."""
        geometry = geometry if geometry is not None else scope.geometry
        low, high = scope.full_scale
        return cls(
            full_scale=(float(low), float(high)),
            samples_per_cycle=geometry.samples_per_cycle,
        )


class TraceFault:
    """One fault family: a named, rng-parameterized window transform."""

    name: str = ""

    def apply(
        self,
        window: np.ndarray,
        rng: np.random.Generator,
        ctx: FaultContext,
    ) -> np.ndarray:
        """Return a corrupted copy of ``window`` (never mutates input)."""
        raise NotImplementedError


class ClippingFault(TraceFault):
    """ADC saturation: the vertical range is mis-set and samples rail.

    The window is over-amplified around its mean and pushed toward a
    randomly chosen rail, then hard-clipped at the scope's full scale —
    the classic "forgot to re-range after moving the probe" capture.
    """

    name = "clip"

    def __init__(
        self,
        gain_range: Tuple[float, float] = (3.0, 6.0),
        push_range: Tuple[float, float] = (0.25, 0.5),
    ) -> None:
        self.gain_range = gain_range
        self.push_range = push_range

    def apply(self, window, rng, ctx):
        low, high = ctx.full_scale
        gain = rng.uniform(*self.gain_range)
        push = rng.uniform(*self.push_range) * ctx.span
        toward_high = bool(rng.integers(0, 2))
        center = float(window.mean())
        out = center + (window - center) * gain
        out = out + (push if toward_high else -push)
        return np.clip(out, low, high)


class TriggerMisfireFault(TraceFault):
    """The trigger fired on the wrong edge: the window is desynchronized.

    Content shifts by a non-integer number of clock cycles (edge samples
    are held), so the fetch/execute structure no longer sits where the
    feature pipeline expects it.  The fractional part is drawn away from
    whole cycles on purpose: an exact one-cycle slip realigns the clock
    feedthrough and is indistinguishable from mis-windowing a neighbour
    instruction — a mislabel, not a detectable corruption.
    """

    name = "misfire"

    def __init__(
        self,
        fraction_range: Tuple[float, float] = (0.3, 0.7),
        max_whole_cycles: int = 1,
    ) -> None:
        self.fraction_range = fraction_range
        self.max_whole_cycles = max_whole_cycles

    def apply(self, window, rng, ctx):
        cycles = rng.integers(0, self.max_whole_cycles + 1) + rng.uniform(
            *self.fraction_range
        )
        shift = max(1, int(round(cycles * ctx.samples_per_cycle)))
        if bool(rng.integers(0, 2)):
            shift = -shift
        out = np.empty_like(window)
        if shift > 0:
            out[shift:] = window[:-shift]
            out[:shift] = window[0]
        else:
            out[:shift] = window[-shift:]
            out[shift:] = window[-1]
        return out


class DropoutFault(TraceFault):
    """A block of samples was dropped and the last value held.

    Deep-memory scopes under decimation pressure lose sample blocks; the
    readout replays the last conversion, leaving an exactly-constant run
    in an otherwise noisy trace.
    """

    name = "dropout"

    def __init__(self, span_fraction: Tuple[float, float] = (0.08, 0.3)):
        self.span_fraction = span_fraction

    def apply(self, window, rng, ctx):
        n = len(window)
        span = max(2, int(rng.uniform(*self.span_fraction) * n))
        start = int(rng.integers(0, max(1, n - span)))
        out = window.copy()
        out[start:start + span] = out[start]
        return out


class BurstNoiseFault(TraceFault):
    """A short high-amplitude noise burst (EMI / ground-loop transient).

    The burst is injected *after* the scope's bandwidth filter, so its
    sample-to-sample jumps are far steeper than anything the band-limited
    analog chain can produce — which is exactly how the screening layer
    detects it.
    """

    name = "burst"

    def __init__(
        self,
        span_samples: Tuple[int, int] = (4, 32),
        amplitude_fraction: Tuple[float, float] = (0.2, 0.5),
    ) -> None:
        self.span_samples = span_samples
        self.amplitude_fraction = amplitude_fraction

    def apply(self, window, rng, ctx):
        n = len(window)
        span = int(rng.integers(self.span_samples[0], self.span_samples[1] + 1))
        span = min(span, n)
        start = int(rng.integers(0, max(1, n - span)))
        amplitude = rng.uniform(*self.amplitude_fraction) * ctx.span
        out = window.copy()
        out[start:start + span] += rng.normal(0.0, amplitude, span)
        low, high = ctx.full_scale
        return np.clip(out, low, high)


class FlatlineFault(TraceFault):
    """The channel died mid-campaign: the whole window is one level.

    An open probe or a tripped input protection leaves the ADC converting
    a constant voltage (plus nothing — the front-end noise is gone too).
    """

    name = "flatline"

    def apply(self, window, rng, ctx):
        low, high = ctx.full_scale
        level = rng.uniform(low, low + 0.3 * ctx.span)
        return np.full_like(window, level)


class BaselineDriftFault(TraceFault):
    """Strong baseline ramp across the window (thermal / supply drift)."""

    name = "drift"

    def __init__(self, drift_fraction: Tuple[float, float] = (0.25, 0.6)):
        self.drift_fraction = drift_fraction

    def apply(self, window, rng, ctx):
        total = rng.uniform(*self.drift_fraction) * ctx.span
        if bool(rng.integers(0, 2)):
            total = -total
        ramp = np.linspace(-total / 2.0, total / 2.0, len(window))
        low, high = ctx.full_scale
        return np.clip(window + ramp, low, high)


def default_faults() -> Tuple[TraceFault, ...]:
    """The standard six-family fault mix, equally likely."""
    return (
        ClippingFault(),
        TriggerMisfireFault(),
        DropoutFault(),
        BurstNoiseFault(),
        FlatlineFault(),
        BaselineDriftFault(),
    )


class FaultInjector:
    """Applies a seeded fault mix to capture windows.

    Args:
        rate: per-window probability of injecting one fault.
        faults: fault families to draw from, uniformly (default: the
            six-family :func:`default_faults` mix).

    Each call to :meth:`corrupt` consumes randomness strictly
    per-row-in-order from the rng it is handed, so the same
    ``(windows, rng state)`` always produces the same corruption —
    the acquisition layer derives that rng from the capture's own seed
    tokens, making chaos runs exactly repeatable.
    """

    def __init__(
        self,
        rate: float = 0.05,
        faults: Optional[Sequence[TraceFault]] = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self.faults: Tuple[TraceFault, ...] = (
            tuple(faults) if faults is not None else default_faults()
        )
        if not self.faults:
            raise ValueError("need at least one fault family")

    def corrupt(
        self,
        windows: np.ndarray,
        rng: np.random.Generator,
        ctx: FaultContext,
    ) -> Tuple[np.ndarray, List[str]]:
        """Corrupt a batch of windows in place of a re-capture attempt.

        Returns:
            ``(corrupted, applied)`` — a float32 copy of ``windows`` and
            the per-row fault family name (``""`` for untouched rows).
        """
        windows = np.asarray(windows)
        out = windows.astype(np.float32, copy=True)
        applied: List[str] = [""] * len(windows)
        for row in range(len(windows)):
            if rng.random() >= self.rate:
                continue
            fault = self.faults[int(rng.integers(0, len(self.faults)))]
            out[row] = fault.apply(
                windows[row].astype(np.float64), rng, ctx
            ).astype(np.float32)
            applied[row] = fault.name
        return out, applied
