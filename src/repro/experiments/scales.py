"""Experiment scale presets.

The paper's full acquisition (3000 traces x 112 classes, five devices)
takes days on a real bench; the simulated equivalent is configurable so
tests run in seconds, benchmarks in minutes, and a full paper-scale run is
one preset away.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

__all__ = ["BENCH", "PAPER", "PRESETS", "SMOKE", "Scale", "get_scale"]


@dataclass(frozen=True)
class Scale:
    """Workload sizes for one experiment campaign.

    Attributes:
        name: preset name.
        n_train_per_class / n_test_per_class: stationary-scenario budgets
            (paper: 2500 / 500 from 10 program files).
        n_programs: profiling program files per class (paper: 10).
        csa_train_per_class / csa_programs: covariate-shift-adaptation
            training budget (paper: 5700 over 19 files).
        registers: register addresses profiled for Rd/Rr levels.
        pc_sweep: principal-component counts for the Fig. 5 sweep.
        var_sweep: per-pair variable counts for the Fig. 6 sweep.
        classes_per_group_cap: optional cap on classes per group for the
            heavy end-to-end experiment (None = all 112).
        n_devices: target devices for Table 4 (paper: 5).
        seed: base acquisition seed.
        n_jobs: capture worker count handed to :class:`Acquisition`
            (``None`` → ``REPRO_N_JOBS`` → serial; ``<= 0`` → all
            cores).  Captures are bit-identical for any value.
    """

    name: str
    n_train_per_class: int
    n_test_per_class: int
    n_programs: int
    csa_train_per_class: int
    csa_programs: int
    registers: Tuple[int, ...]
    pc_sweep: Tuple[int, ...]
    var_sweep: Tuple[int, ...]
    classes_per_group_cap: Optional[int]
    n_devices: int
    seed: int = 2018
    n_jobs: Optional[int] = None

    def with_overrides(self, **kwargs) -> "Scale":
        """Copy with fields replaced."""
        return replace(self, **kwargs)

    def components(self, default: int) -> int:
        """PCA budget compatible with the per-class trace budget.

        QDA fits a full covariance per class; keeping the dimensionality
        under ~a third of the per-class trace count keeps it well
        conditioned at small scales.
        """
        return max(3, min(default, self.n_train_per_class // 3))


#: Seconds-scale: unit/integration tests.
SMOKE = Scale(
    name="smoke",
    n_train_per_class=80,
    n_test_per_class=24,
    n_programs=4,
    csa_train_per_class=240,
    csa_programs=6,
    registers=(0, 8, 16, 24),
    pc_sweep=(5, 15),
    var_sweep=(3,),
    classes_per_group_cap=4,
    n_devices=2,
)

#: Minutes-scale: the default for ``benchmarks/``.
BENCH = Scale(
    name="bench",
    n_train_per_class=250,
    n_test_per_class=50,
    n_programs=10,
    csa_train_per_class=1140,
    csa_programs=19,
    registers=(0, 4, 8, 12, 16, 20, 24, 28),
    pc_sweep=(3, 5, 9, 17, 25, 43),
    var_sweep=(1, 2, 3, 5, 7, 9),
    classes_per_group_cap=None,
    n_devices=5,
)

#: The paper's acquisition sizes (hours-scale).
PAPER = Scale(
    name="paper",
    n_train_per_class=2500,
    n_test_per_class=500,
    n_programs=10,
    csa_train_per_class=5700,
    csa_programs=19,
    registers=tuple(range(32)),
    pc_sweep=(3, 5, 9, 17, 25, 43, 50),
    var_sweep=(1, 2, 3, 4, 5, 6, 7, 8, 9),
    classes_per_group_cap=None,
    n_devices=5,
)

#: preset name -> :class:`Scale`; the names ``--scale`` accepts.
PRESETS = {s.name: s for s in (SMOKE, BENCH, PAPER)}


def get_scale(name_or_scale) -> Scale:
    """Resolve a preset name or pass a :class:`Scale` through."""
    if isinstance(name_or_scale, Scale):
        return name_or_scale
    try:
        return PRESETS[name_or_scale]
    except KeyError:
        raise KeyError(
            f"unknown scale {name_or_scale!r}; choose from {sorted(PRESETS)}"
        ) from None
