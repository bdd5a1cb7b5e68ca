"""Collection factors: which decimation, ω₀ and ``KL_th`` does a deployment need?

Gwinn et al.'s collection-factor study (arXiv:2204.04766) ranks
acquisition choices — scope rate, wavelet, feature-selection threshold —
by what they do to disassembly accuracy and cost.  This runner asks that
question of the simulated bench on a *paired* design, so neighbouring
cells differ only by the factor under study:

* one capture per fault rate, with :class:`~repro.power.faults.FaultInjector`
  at that rate and the screener on (same acquisition seed for every rate,
  so the clean signal is shared and only the fault draws differ);
* one train/test split per capture, decimated per decimation to emulate
  a slower scope (as in :mod:`repro.experiments.sampling_rate`);
* one group-1 fit per (ω₀, ``kl_threshold``) on that split.

Each cell reports three metrics: accuracy on the held-out split,
capture cost (digitized samples including screening re-captures — scope
time and storage) and inference cost (selected points × PCA components,
the per-trace GEMM volume).  Within one fault rate, all cells at one
decimation share a capture, so they report the same capture cost.  The
fault rate is the environment, not a choice, so the Pareto front
(max accuracy, min both costs) is taken within each fault rate.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from ..core.hierarchy import SideChannelDisassembler
from ..dsp.cwt import CwtConfig
from ..features.pipeline import FeatureConfig
from ..isa.groups import classification_classes
from ..ml.discriminant import QDA
from ..power.acquisition import Acquisition
from ..power.faults import FaultInjector
from ..power.quality import ScreeningStats
from .results import ResultTable
from .sampling_rate import decimate
from .scales import Scale, get_scale

__all__ = ["AXES", "BUDGETS", "pareto_front", "run"]

#: Axis values per scale name: the collection factors Gwinn et al. rank
#: as dominant, plus the capture fault rate the deployment faces.
AXES: Dict[str, Dict[str, Tuple[object, ...]]] = {
    "smoke": {
        "fault_rate": (0.0, 0.15),
        "decimation": (1, 4),
        "omega0": (6.0, 8.0),
        "kl_threshold": ("auto:0.9", "inf"),
    },
    "bench": {
        "fault_rate": (0.0, 0.05, 0.15),
        "decimation": (1, 2, 4, 8),
        "omega0": (5.0, 8.0, 12.0),
        "kl_threshold": ("auto:0.9", "auto:0.5", "inf"),
    },
    "paper": {
        "fault_rate": (0.0, 0.02, 0.05, 0.10, 0.15),
        "decimation": (1, 2, 4, 8, 16),
        "omega0": (5.0, 6.0, 8.0, 10.0, 12.0),
        "kl_threshold": ("auto:0.9", "auto:0.5", "inf"),
    },
}

#: Capture budget per scale name: (group-1 classes, windows per class,
#: program files per class).
BUDGETS: Dict[str, Tuple[int, int, int]] = {
    "smoke": (3, 36, 2),
    "bench": (6, 80, 4),
    "paper": (12, 300, 10),
}

#: Feature/classifier settings shared by every cell (only ω₀ and
#: ``kl_threshold`` vary).
N_COMPONENTS = 6
TOP_K = 5
TRAIN_FRACTION = 0.7

_COLUMNS = (
    "fault rate", "decimation", "omega0", "KL_th", "accuracy (%)",
    "capture cost", "inference cost", "pareto",
)


def _resolvable_band(decimation: int, omega0: float) -> bool:
    """Keep-constraint: high centre frequencies need a fast scope.

    At 8x decimation and beyond, the Morlet band for ``omega0 >= 12``
    sits largely above the emulated Nyquist — those cells would measure
    aliasing, not the instruction signal, so the grid excludes them.
    """
    return not (decimation >= 8 and omega0 >= 12.0)


def pareto_front(points: Sequence[Mapping[str, float]]) -> List[int]:
    """Indices of Pareto-optimal points (max accuracy, min both costs).

    A point is dominated when some other point is at least as good on
    all three objectives and strictly better on one.  O(n²) — a grid is
    at most a few hundred cells.
    """
    keys = [
        (
            float(p["accuracy"]),
            float(p["capture_cost"]),
            float(p["inference_cost"]),
        )
        for p in points
    ]
    front: List[int] = []
    for i, a in enumerate(keys):
        dominated = any(
            b[0] >= a[0]
            and b[1] <= a[1]
            and b[2] <= a[2]
            and (b[0] > a[0] or b[1] < a[1] or b[2] < a[2])
            for j, b in enumerate(keys)
            if j != i
        )
        if not dominated:
            front.append(i)
    return front


def _kl_value(raw: object) -> Union[float, str]:
    return float("inf") if raw == "inf" else str(raw)


def run(scale="bench") -> ResultTable:
    """Sweep the scale's collection-factor grid on paired captures."""
    scale = get_scale(scale)
    axes = AXES[scale.name]
    n_classes, n_per_class, n_programs = BUDGETS[scale.name]
    keys = classification_classes(1)[:n_classes]

    table = ResultTable(
        title=(
            "Collection factors: group-1 accuracy vs capture and "
            "inference cost (QDA)"
        ),
        columns=list(_COLUMNS),
        paper_reference={
            "question": "which decimation, wavelet and KL_th a deployment "
            "needs (Gwinn et al., arXiv:2204.04766)"
        },
        notes=(
            f"scale={scale.name}, seed={scale.seed}; {n_classes} classes x "
            f"{n_per_class} windows over {n_programs} files per fault "
            "rate, one capture and split per fault rate; capture cost in "
            "digitized samples (incl. re-captures), inference cost in "
            "points x components; pareto '*' = non-dominated within the "
            "fault rate; decimation >= 8 with omega0 >= 12 excluded "
            "(band above the emulated Nyquist)"
        ),
    )
    for fault_rate in axes["fault_rate"]:
        rows = _sweep_fault_rate(
            scale, float(fault_rate), axes, keys, n_per_class, n_programs
        )
        front = set(pareto_front(rows))
        for index, row in enumerate(rows):
            table.add_row(
                **{
                    "fault rate": row["fault_rate"],
                    "decimation": row["decimation"],
                    "omega0": row["omega0"],
                    "KL_th": row["kl_threshold"],
                    "accuracy (%)": row["accuracy"],
                    "capture cost": row["capture_cost"],
                    "inference cost": row["inference_cost"],
                    "pareto": "*" if index in front else "",
                }
            )
    return table


def _sweep_fault_rate(
    scale: Scale,
    fault_rate: float,
    axes: Mapping[str, Sequence[object]],
    keys: Sequence[str],
    n_per_class: int,
    n_programs: int,
) -> List[Dict[str, object]]:
    """Capture once at ``fault_rate``, then fit every kept cell on it."""
    acq = Acquisition(
        seed=scale.seed,
        n_jobs=scale.n_jobs,
        faults=FaultInjector(rate=fault_rate),
        screener=True,
    )
    full = acq.capture_instruction_set(keys, n_per_class, n_programs)
    stats = ScreeningStats()
    for per_class in acq.screening_stats.values():
        stats.merge(per_class)
    rng = np.random.default_rng(scale.seed + 2204)
    train, test = full.split_random(TRAIN_FRACTION, rng)

    rows: List[Dict[str, object]] = []
    for decimation in axes["decimation"]:
        train_d = decimate(train, decimation)
        test_d = decimate(test, decimation)
        capture_cost = (stats.n_captured + stats.n_retried) * train_d.n_samples
        for omega0 in axes["omega0"]:
            if not _resolvable_band(decimation, omega0):
                continue
            for kl in axes["kl_threshold"]:
                config = FeatureConfig(
                    kl_threshold=_kl_value(kl),  # type: ignore[arg-type]
                    top_k=TOP_K,
                    n_components=N_COMPONENTS,
                    normalize="batch",
                    cwt=CwtConfig(omega0=omega0),
                )
                dis = SideChannelDisassembler(config, classifier_factory=QDA)
                model = dis.fit_instruction_level(1, train_d)
                rows.append(
                    {
                        "fault_rate": fault_rate,
                        "decimation": decimation,
                        "omega0": omega0,
                        "kl_threshold": kl,
                        "accuracy": model.score(test_d) * 100.0,
                        "capture_cost": capture_cost,
                        "inference_cost": (
                            len(model.pipeline.points) * N_COMPONENTS
                        ),
                    }
                )
    return rows
