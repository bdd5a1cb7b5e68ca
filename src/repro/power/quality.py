"""Per-trace integrity screening, quarantine, and re-capture policy.

The counterpart of :mod:`repro.power.faults`: detectors matched to each
fault family plus generic geometry/finiteness checks, run on *raw*
(pre-reference-subtraction) windows so thresholds can be stated against
the scope's full scale.

Detector map (fault family → primary detector):

=============  ==============================================
``clip``       dwell fraction at the ADC rails
``flatline``   collapsed per-window standard deviation
``dropout``    run of exactly-identical consecutive samples
``burst``      first-difference steps no band-limited front
               end can produce
``drift``      fitted baseline slope across the window
``misfire``    correlation against the batch's median window
               (the clock feedthrough all aligned windows share)
=============  ==============================================

Screening is deliberately conservative: thresholds sit far outside the
envelope of clean captures (``tests/power/test_quality.py`` pins a
zero false-positive rate on clean batches), because a screen that
quarantines good traces silently biases the dataset — the failure mode
Gwinn et al. warn about for over-aggressive collection filtering.

A window that fails screening is re-captured (fault draws are
re-randomized per attempt) up to :class:`RetryPolicy.max_attempts`
times, then quarantined.  Re-captures follow at once: the simulated
bench has nothing to settle between attempts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .faults import FaultContext

__all__ = [
    "QualityConfig",
    "RetryPolicy",
    "ScreenReport",
    "ScreeningStats",
    "TraceScreener",
]


@dataclass(frozen=True)
class QualityConfig:
    """Detector thresholds, in full-scale-relative units where possible.

    Attributes:
        rail_fraction: flag when more than this fraction of samples sits
            within ``rail_eps_fraction * span`` of either ADC rail.
        rail_eps_fraction: rail proximity band, as a fraction of span.
        flat_std_fraction: flag when the window's standard deviation
            falls below this fraction of span (dead channel).
        dropout_run: flag when this many consecutive samples are exactly
            identical (held-sample gap; quantized live traces dither).
        burst_step_fraction: flag when at least ``burst_min_steps``
            first-difference steps exceed this fraction of span — the
            bandwidth-limited front end cannot slew that fast.
        burst_min_steps: extreme steps required before flagging.
        drift_total_fraction: flag when the fitted linear baseline moves
            more than this fraction of span across the window.
        desync_correlation: flag when the window's Pearson correlation
            with the batch median window drops below this (all aligned
            windows share the clock feedthrough).
        desync_min_rows: self-calibrated desync screening needs at least
            this many rows to trust the batch median.
    """

    rail_fraction: float = 0.04
    rail_eps_fraction: float = 0.004
    flat_std_fraction: float = 0.005
    dropout_run: int = 24
    burst_step_fraction: float = 0.18
    burst_min_steps: int = 2
    drift_total_fraction: float = 0.15
    desync_correlation: float = 0.4
    desync_min_rows: int = 8


@dataclass
class ScreenReport:
    """Verdicts for one screened batch."""

    passed: np.ndarray  #: (n,) bool — window survived every detector.
    reasons: List[str]  #: per-row comma-joined detector codes ("" = clean).

    def counts(self) -> Dict[str, int]:
        """Occurrences per detector code across the batch."""
        out: Dict[str, int] = {}
        for reason in self.reasons:
            for code in filter(None, reason.split(",")):
                out[code] = out.get(code, 0) + 1
        return out

    @property
    def n_flagged(self) -> int:
        """Number of rejected windows."""
        return int(len(self.passed) - np.count_nonzero(self.passed))


@dataclass
class ScreeningStats:
    """Quality accounting for one capture (per class, merged per file).

    ``n_faulted`` is simulation ground truth (how many windows the
    injector actually corrupted); everything else is observable on a
    real bench too.
    """

    n_captured: int = 0
    n_faulted: int = 0
    n_flagged: int = 0
    n_retried: int = 0
    n_quarantined: int = 0
    n_kept: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "ScreeningStats") -> "ScreeningStats":
        """Accumulate another capture's stats into this one (returns self)."""
        self.n_captured += other.n_captured
        self.n_faulted += other.n_faulted
        self.n_flagged += other.n_flagged
        self.n_retried += other.n_retried
        self.n_quarantined += other.n_quarantined
        self.n_kept += other.n_kept
        for code, count in other.reasons.items():
            self.reasons[code] = self.reasons.get(code, 0) + count
        return self

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for dataset metadata / JSON reports."""
        return {
            "n_captured": self.n_captured,
            "n_faulted": self.n_faulted,
            "n_flagged": self.n_flagged,
            "n_retried": self.n_retried,
            "n_quarantined": self.n_quarantined,
            "n_kept": self.n_kept,
            "reasons": dict(self.reasons),
        }

    @property
    def quarantine_rate(self) -> float:
        """Fraction of captured windows dropped after retries."""
        if self.n_captured == 0:
            return 0.0
        return self.n_quarantined / self.n_captured


@dataclass(frozen=True)
class RetryPolicy:
    """How often a window that fails screening is re-captured.

    Attributes:
        max_attempts: re-captures allowed per flagged window before it
            is quarantined (0 = screen-and-quarantine only).
    """

    max_attempts: int = 2


def _max_equal_run(windows: np.ndarray) -> np.ndarray:
    """Longest run of exactly-equal consecutive samples, per row."""
    if windows.shape[1] < 2:
        return np.ones(len(windows), dtype=np.int64)
    n = len(windows)
    # Runs of equal neighbours, bounded by False on both ends: +1 marks
    # where a run starts and -1 where it ends, in row-major order, so
    # the k-th start and the k-th end belong to the same run.
    bounded = np.zeros((n, windows.shape[1] + 1), dtype=np.int8)
    bounded[:, 1:-1] = windows[:, 1:] == windows[:, :-1]
    edges = np.diff(bounded, axis=1)
    rows, starts = np.nonzero(edges == 1)
    _, ends = np.nonzero(edges == -1)
    best = np.zeros(n, dtype=np.int64)
    np.maximum.at(best, rows, ends - starts)
    return best + 1


class TraceScreener:
    """Runs every detector over a batch of raw capture windows.

    Args:
        config: detector thresholds.
        template: optional fixed alignment template for the desync
            detector.  When omitted, each screened batch self-calibrates
            against its own median window (robust to a minority of
            corrupt rows), which also keeps the screener stateless and
            trivially picklable for the capture worker pool.
    """

    def __init__(
        self,
        config: Optional[QualityConfig] = None,
        template: Optional[np.ndarray] = None,
    ) -> None:
        self.config = config if config is not None else QualityConfig()
        self.template = (
            np.asarray(template, dtype=np.float64)
            if template is not None
            else None
        )

    def screen(
        self, windows: np.ndarray, ctx: Optional[FaultContext] = None
    ) -> ScreenReport:
        """Screen a batch; returns per-row verdicts and reasons."""
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 2:
            raise ValueError(
                f"expected a (n_windows, n_samples) batch, got {windows.shape}"
            )
        ctx = ctx if ctx is not None else FaultContext()
        cfg = self.config
        n, length = windows.shape
        low, high = ctx.full_scale
        span = ctx.span
        flags: List[np.ndarray] = []
        codes: List[str] = []

        finite = np.isfinite(windows).all(axis=1)
        flags.append(~finite)
        codes.append("nonfinite")
        # Non-finite rows would poison every reduction below; screen the
        # remaining detectors on a sanitized copy.
        safe = np.where(finite[:, None], windows, 0.0)

        eps = cfg.rail_eps_fraction * span
        railed = (safe <= low + eps) | (safe >= high - eps)
        flags.append(railed.mean(axis=1) > cfg.rail_fraction)
        codes.append("clip")

        std = safe.std(axis=1)
        flags.append(std < cfg.flat_std_fraction * span)
        codes.append("flatline")

        flags.append(_max_equal_run(safe) >= cfg.dropout_run)
        codes.append("dropout")

        steps = np.abs(np.diff(safe, axis=1))
        extreme = steps > cfg.burst_step_fraction * span
        flags.append(extreme.sum(axis=1) >= cfg.burst_min_steps)
        codes.append("burst")

        if length >= 2:
            t = np.arange(length, dtype=np.float64)
            t -= t.mean()
            slope = (safe - safe.mean(axis=1, keepdims=True)) @ t / (t @ t)
            flags.append(
                np.abs(slope) * length > cfg.drift_total_fraction * span
            )
            codes.append("drift")

        template = self.template
        if template is None and n >= cfg.desync_min_rows:
            template = np.median(safe, axis=0)
        if template is not None:
            centered = safe - safe.mean(axis=1, keepdims=True)
            t_centered = template - template.mean()
            t_norm = float(np.linalg.norm(t_centered))
            norms = np.linalg.norm(centered, axis=1) * t_norm
            with np.errstate(invalid="ignore", divide="ignore"):
                corr = np.where(
                    norms > 0.0, centered @ t_centered / norms, 0.0
                )
            flags.append(corr < cfg.desync_correlation)
            codes.append("misfire")

        stacked = np.stack(flags, axis=1)
        passed = ~stacked.any(axis=1)
        reasons = [
            ""
            if ok
            else ",".join(
                code for code, hit in zip(codes, row_flags) if hit
            )
            for ok, row_flags in zip(passed, stacked)
        ]
        return ScreenReport(passed=passed, reasons=reasons)
