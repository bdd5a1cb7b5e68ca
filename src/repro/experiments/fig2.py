"""Fig. 2: extracting distinct and not-varying feature points (ADC vs AND).

The figure is qualitative — four panels of the time-frequency plane:
(a)/(c) not-varying point masks of each class, (b) between-class KL peaks,
(d) the five selected DNVP points.  The runner reproduces the underlying
fields and reports their summary statistics plus the selected points, and
exposes the raw fields for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..dsp.cwt import get_cwt
from ..features.kl import within_class_kl
from ..features.pipeline import compute_class_stats
from ..features.selection import select_pair_points
from ..power.acquisition import Acquisition
from .results import ResultTable
from .scales import get_scale

__all__ = ["Fig2Fields", "run"]

PAIR = ("ADC", "AND")


@dataclass
class Fig2Fields:
    """Raw fields behind the four panels (for plotting/inspection)."""

    within_adc: np.ndarray
    within_and: np.ndarray
    between: np.ndarray
    nvp_adc: np.ndarray
    nvp_and: np.ndarray
    peaks: np.ndarray
    selected: List[Tuple[int, int]]
    scales: np.ndarray


def run(scale="bench", kl_threshold="auto") -> Tuple[ResultTable, Fig2Fields]:
    """Regenerate the Fig. 2 feature-point extraction for ADC vs AND."""
    scale = get_scale(scale)
    acq = Acquisition(seed=scale.seed, n_jobs=scale.n_jobs)
    trace_set = acq.capture_instruction_set(
        list(PAIR), scale.n_train_per_class, scale.n_programs
    )
    cwt = get_cwt(trace_set.n_samples)
    stats = compute_class_stats(
        trace_set.traces, trace_set.labels, trace_set.program_ids,
        trace_set.label_names, cwt,
    )
    within_adc = within_class_kl(stats["ADC"])
    within_and = within_class_kl(stats["AND"])
    selection = select_pair_points(
        stats["ADC"], stats["AND"],
        kl_threshold=kl_threshold, top_k=5,
        class_a="ADC", class_b="AND",
        within_a=within_adc, within_b=within_and,
    )
    fields = Fig2Fields(
        within_adc=within_adc,
        within_and=within_and,
        between=selection.between_field,
        nvp_adc=selection.nvp_mask_a,
        nvp_and=selection.nvp_mask_b,
        peaks=selection.peaks_mask,
        selected=selection.points,
        scales=cwt.scales,
    )
    n_plane = within_adc.size
    table = ResultTable(
        title="Fig. 2: DNVP extraction for ADC vs AND",
        columns=["quantity", "value"],
        paper_reference={
            "selected points": 5,
            "plane size": "50 x 315 = 15750",
        },
        notes=f"scale={scale.name}; KL_th={kl_threshold}",
    )
    table.add_row(quantity="time-frequency plane points", value=n_plane)
    table.add_row(
        quantity="not-varying points (ADC)", value=int(fields.nvp_adc.sum())
    )
    table.add_row(
        quantity="not-varying points (AND)", value=int(fields.nvp_and.sum())
    )
    table.add_row(
        quantity="between-class KL peaks", value=int(fields.peaks.sum())
    )
    table.add_row(
        quantity="max between-class KL", value=float(fields.between.max())
    )
    table.add_row(
        quantity="selected DNVP points (scale idx, time idx)",
        value=str(fields.selected),
    )
    table.add_row(
        quantity="strict selection (no relaxation)",
        value=not selection.relaxed,
    )
    return table, fields
