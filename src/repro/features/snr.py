"""Signal-to-noise ratio fields — the classical side-channel diagnostic.

Mangard's SNR (Power Analysis Attacks, 2007) for a labelled trace set:

    SNR(t) = Var_c[ E[X_t | c] ] / E_c[ Var[X_t | c] ]

i.e. variance of the class-conditional means over the mean
class-conditional variance, per sample point (or per time-frequency
point).  It complements the paper's KL-based selection: KL ranks *pairs*
of classes, SNR summarizes the whole label set in one field, and the two
agree on where exploitable leakage lives.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..dsp.cwt import CwtConfig, get_cwt
from ..power.dataset import TraceSet
from .pipeline import compute_class_stats

__all__ = ["snr_field", "snr_report"]


def snr_field(
    values: np.ndarray, labels: np.ndarray, var_floor: float = 1e-12
) -> np.ndarray:
    """Per-point SNR of labelled observations.

    Args:
        values: ``(n, ...)`` observations (time-domain traces or CWT
            images); the SNR is computed point-wise over the trailing
            dimensions.
        labels: ``(n,)`` integer class labels.
        var_floor: lower clamp for the noise variance.

    Returns:
        SNR array with the trailing shape of ``values``.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise ValueError("SNR needs at least two classes")
    means = np.stack(
        [values[labels == c].mean(axis=0, dtype=np.float64) for c in classes]
    )
    noise = np.stack(
        [values[labels == c].var(axis=0, dtype=np.float64) for c in classes]
    )
    return _snr(means, noise, var_floor)


def _snr(means: np.ndarray, noise: np.ndarray, var_floor: float) -> np.ndarray:
    """SNR from stacked ``(n_classes, ...)`` class means and variances."""
    signal = means.var(axis=0, dtype=np.float64)
    return signal / np.maximum(noise.mean(axis=0, dtype=np.float64), var_floor)


def snr_report(
    trace_set: TraceSet,
    use_cwt: bool = False,
    cwt_config: Optional[CwtConfig] = None,
) -> dict:
    """Summary SNR statistics of a labelled trace set.

    With ``use_cwt`` the field covers the time-frequency plane; it comes
    from the streamed class statistics (:func:`compute_class_stats`), so
    the full plane of the trace set is never held.

    Returns:
        dict with the SNR ``field``, its ``max``, the ``argmax`` point,
        and the fraction of points with SNR above 1 (``exploitable``).
    """
    if use_cwt:
        classes, codes = np.unique(trace_set.labels, return_inverse=True)
        if len(classes) < 2:
            raise ValueError("SNR needs at least two classes")
        stats = compute_class_stats(
            trace_set.traces,
            codes,
            trace_set.program_ids,
            [str(c) for c in classes],
            get_cwt(trace_set.n_samples, cwt_config),
        ).values()
        field = _snr(
            np.stack([s.mean for s in stats]),
            np.stack([s.var for s in stats]),
            1e-12,
        )
    else:
        field = snr_field(trace_set.traces, trace_set.labels)
    return {
        "field": field,
        "max": float(field.max()),
        "argmax": tuple(
            int(i) for i in np.unravel_index(field.argmax(), field.shape)
        ),
        "exploitable": float((field > 1.0).mean(dtype=np.float64)),
    }
