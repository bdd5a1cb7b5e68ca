"""Hierarchy oracle: the naive row-at-a-time streaming disassembler."""

import numpy as np


def predict_instructions(dis, windows, groups=None, adapt=None):
    """Row-at-a-time :meth:`SideChannelDisassembler.predict_instructions`.

    Routes every window through its group's level-2 model as a batch of
    one.  Such batches never reach the adaptation minimum, so parity with
    the grouped-batch fast path holds under ``adapt=False`` or
    non-batch normalization.
    """
    windows = np.asarray(windows)
    if groups is None:
        groups = dis.predict_groups(windows, adapt=adapt)
    keys = []
    for row, group in enumerate(groups):
        model = dis.instruction_models.get(int(group))
        if model is None:
            keys.append(f"G{int(group)}?")
            continue
        keys.append(model.predict_keys(windows[row:row + 1], adapt=adapt)[0])
    return keys
