"""Screening oracle: the column-at-a-time equal-run scan."""

import numpy as np


def max_equal_run(windows: np.ndarray) -> np.ndarray:
    """The formulation :func:`repro.power.quality._max_equal_run` is held to.

    Walks the columns left to right, extending each row's streak of
    exactly-equal neighbours and keeping its longest.
    """
    if windows.shape[1] < 2:
        return np.ones(len(windows), dtype=np.int64)
    equal = windows[:, 1:] == windows[:, :-1]
    streak = np.zeros(len(windows), dtype=np.int64)
    best = np.zeros(len(windows), dtype=np.int64)
    for column in range(equal.shape[1]):
        streak = (streak + 1) * equal[:, column]
        np.maximum(best, streak, out=best)
    return best + 1
