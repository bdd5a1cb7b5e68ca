"""Workload construction shared by the experiment runners.

Everything that turns a :class:`~repro.experiments.scales.Scale` into
captured trace sets lives here: group-level pools and samplers, per-group
instruction classes, and the golden firmware used by the malware case
study.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..isa.groups import classification_classes
from ..power.acquisition import Acquisition, random_instance
from ..power.dataset import TraceSet
from .scales import Scale

__all__ = [
    "GroupSampler",
    "MASKED_AES_SNIPPET",
    "TAMPERED_AES_SNIPPET",
    "capture_group_set",
    "group_classes",
    "group_pool",
]


def group_pool(group: int) -> List[str]:
    """Group-level profiling pool (cross-group duplicates removed)."""
    return classification_classes(group, exclude_cross_group=True)


class GroupSampler:
    """Picklable target sampler drawing uniformly from a class pool.

    Module-level (not a closure) so group captures can run on the
    acquisition worker pool.
    """

    def __init__(self, pool: Sequence[str]):
        self.pool = tuple(pool)

    def __call__(self, rng: np.random.Generator, word_address: int):
        key = self.pool[rng.integers(len(self.pool))]
        return random_instance(key, rng, word_address=word_address)


def group_classes(group: int, scale: Scale) -> List[str]:
    """Instruction classes trained at level 2 for one group."""
    keys = classification_classes(group)
    if scale.classes_per_group_cap is not None:
        keys = keys[: scale.classes_per_group_cap]
    return keys


def capture_group_set(
    acq: Acquisition, n_per_group: int, n_programs: int
) -> TraceSet:
    """Level-1 training data: traces labelled by Table 2 group."""
    traces: List[np.ndarray] = []
    labels: List[int] = []
    program_ids: List[np.ndarray] = []
    names = tuple(f"G{g}" for g in range(1, 9))
    for code, group in enumerate(range(1, 9)):
        sampler = GroupSampler(group_pool(group))
        windows, pids = acq.capture_class(
            sampler.pool[0],
            n_per_group,
            n_programs,
            label_override=names[code],
            target_sampler=sampler,
        )
        traces.append(windows)
        labels.extend([code] * len(windows))
        program_ids.append(pids)
    return TraceSet(
        traces=np.concatenate(traces),
        labels=np.array(labels),
        label_names=names,
        program_ids=np.concatenate(program_ids),
        device=acq.device.name,
        meta={"kind": "groups"},
    )


#: §5.7's case study: first-order-masked AES key whitening.  r16 holds a
#: key byte, r17 a fresh random mask, r0 is pinned to zero by the runtime.
#: The XOR with the mask hides the key's power signature from first-order
#: side-channel attacks.
MASKED_AES_SNIPPET = """
    ldi r16, 0x2B   ; subkey byte
    ldi r17, 0x5F   ; random mask (refreshed per block)
    eor r16, r17    ; masked key = key XOR mask
    mov r18, r16
    swap r18
    and r18, r16
    eor r18, r17    ; continue masked computation
"""

#: The malware variant: one register substitution (``eor r16, r17`` ->
#: ``eor r16, r0``).  r0 is zero, so the "mask" is a no-op, the key stays
#: unmasked, and the downstream S-box lookup leaks it — while functional
#: outputs remain plausible.
TAMPERED_AES_SNIPPET = MASKED_AES_SNIPPET.replace(
    "eor r16, r17    ; masked key = key XOR mask",
    "eor r16, r0     ; malware: mask replaced by zero register",
    1,
)
