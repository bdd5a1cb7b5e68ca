"""Fig. 3: best vs worst KL-based feature selection under program shift.

The paper plots AND traces from two different programs in two 3-D feature
spaces: with the 3 *lowest* suitable peaks (stable points) the two
programs' traces form ONE cluster; with the 3 *highest* peaks they split
into two separate clusters (the covariate shift rides on exactly the
strongest features).

We reproduce the effect numerically with a cluster-separation score: the
between-program centroid distance divided by the mean within-program
spread.  "Worst" features must score far above "best" features.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..dsp.cwt import get_cwt
from ..features.kl import between_class_kl, within_class_kl
from ..features.pipeline import compute_class_stats, point_values
from ..features.selection import local_maxima_2d
from ..power.acquisition import Acquisition
from .results import ResultTable
from .scales import get_scale

__all__ = ["program_separation", "run"]


def program_separation(values: np.ndarray, program_ids: np.ndarray) -> float:
    """Between-program centroid distance over within-program spread."""
    programs = np.unique(program_ids)
    if len(programs) != 2:
        raise ValueError("expected exactly two programs")
    block_a = values[program_ids == programs[0]]
    block_b = values[program_ids == programs[1]]
    centroid_gap = float(
        np.linalg.norm(block_a.mean(axis=0) - block_b.mean(axis=0))
    )
    spread = float(
        np.mean(
            [
                np.linalg.norm(block - block.mean(axis=0), axis=1).mean()
                for block in (block_a, block_b)
            ]
        )
    )
    return centroid_gap / max(spread, 1e-12)


def run(scale="bench") -> Tuple[ResultTable, Dict[str, np.ndarray]]:
    """Regenerate Fig. 3's contrast for the AND instruction."""
    scale = get_scale(scale)
    acq = Acquisition(seed=scale.seed, n_jobs=scale.n_jobs)
    # AND traces from two program files, plus ADC as the contrast class
    # whose between-KL field ranks the peaks.
    trace_set = acq.capture_instruction_set(
        ["ADC", "AND"], scale.n_train_per_class, 2
    )
    cwt = get_cwt(trace_set.n_samples)
    stats = compute_class_stats(
        trace_set.traces, trace_set.labels, trace_set.program_ids,
        trace_set.label_names, cwt,
    )
    between = between_class_kl(stats["ADC"], stats["AND"])
    within = np.maximum(
        within_class_kl(stats["ADC"]), within_class_kl(stats["AND"])
    )
    peaks = local_maxima_2d(between)
    peak_indices = np.argwhere(peaks)
    peak_values = between[peaks]
    order = np.argsort(peak_values)[::-1]
    # "Worst": the 3 highest between-KL peaks (Fig. 3's scattered case).
    worst = [(int(peak_indices[i][0]), int(peak_indices[i][1])) for i in order[:3]]
    # "Best": the 3 highest peaks among the stable (low within-KL) half.
    stable_mask = within <= np.median(within[peaks])
    stable_peaks = [
        (int(idx[0]), int(idx[1])) for idx in peak_indices[order]
        if stable_mask[tuple(idx)]
    ]
    best = stable_peaks[:3]

    and_rows = trace_set.class_indices("AND")
    and_traces = trace_set.traces[and_rows]
    program_ids = trace_set.program_ids[and_rows]

    def extract(points):
        values = point_values(and_traces, points, cwt)
        # standardize columns so the score is scale-free
        values = (values - values.mean(axis=0)) / (values.std(axis=0) + 1e-12)
        return values

    worst_values = extract(worst)
    best_values = extract(best)
    worst_score = program_separation(worst_values, program_ids)
    best_score = program_separation(best_values, program_ids)

    table = ResultTable(
        title="Fig. 3: program-cluster separation of AND traces",
        columns=["feature set", "points", "separation score", "interpretation"],
        paper_reference={
            "3 highest peaks": "two separate clusters",
            "3 lowest (stable) peaks": "one cluster",
        },
        notes=(
            f"scale={scale.name}; score = between-program centroid gap / "
            f"within-program spread (higher = scattered)"
        ),
    )
    table.add_row(
        **{
            "feature set": "3 highest peaks (worst)",
            "points": str(worst),
            "separation score": worst_score,
            "interpretation": "scattered" if worst_score > 1.0 else "clustered",
        }
    )
    table.add_row(
        **{
            "feature set": "3 stable peaks (best)",
            "points": str(best),
            "separation score": best_score,
            "interpretation": "scattered" if best_score > 1.0 else "clustered",
        }
    )
    return table, {"worst": worst_values, "best": best_values,
                   "program_ids": program_ids}
