"""§5.4's sampling-rate argument: how slow can the scope be?

The paper argues that needing ~40 feature points over 2 clock cycles
implies a sampling rate ≥ 20x the clock (a 20 GS/s scope for a 1 GHz
part), and that cutting the per-classifier variable count via majority
voting is what makes faster targets practical (10 points -> 5 GS/s).

This runner makes the argument quantitative on the simulated bench: the
2.5 GS/s capture is decimated to emulate slower scopes, and group-1 SR is
measured for both the general method and the majority-voting method at
each emulated rate.
"""

from __future__ import annotations

import numpy as np

from ..core.hierarchy import SideChannelDisassembler
from ..core.voting import PairwiseVotingClassifier
from ..isa.groups import classification_classes
from ..power.acquisition import Acquisition
from ..power.dataset import TraceSet
from .configs import CLASSIFIERS, stationary_config
from .results import ResultTable
from .scales import get_scale

__all__ = ["DECIMATIONS", "decimate", "run"]

#: Decimation factors and the oscilloscope rate each emulates
#: (base rate 2.5 GS/s at a 16 MHz clock -> 156 samples/cycle).
DECIMATIONS = (1, 2, 4, 8, 16)


def decimate(trace_set: TraceSet, factor: int) -> TraceSet:
    """Keep every ``factor``-th sample: the capture of a slower scope."""
    return TraceSet(
        traces=trace_set.traces[:, ::factor].copy(),
        labels=trace_set.labels,
        label_names=trace_set.label_names,
        program_ids=trace_set.program_ids,
        device=trace_set.device,
        meta=dict(trace_set.meta),
    )


def run(scale="bench", classifier: str = "QDA") -> ResultTable:
    """Regenerate the sampling-rate sweep (extension of §5.4)."""
    scale = get_scale(scale)
    factory = CLASSIFIERS[classifier]
    acq = Acquisition(seed=scale.seed, n_jobs=scale.n_jobs)
    rng = np.random.default_rng(scale.seed + 54)
    keys = classification_classes(1)
    fraction = scale.n_train_per_class / (
        scale.n_train_per_class + scale.n_test_per_class
    )
    full = acq.capture_instruction_set(
        keys, scale.n_train_per_class + scale.n_test_per_class,
        scale.n_programs,
    )

    table = ResultTable(
        title=f"Sampling-rate sweep: group-1 SR vs scope rate ({classifier})",
        columns=[
            "rate (GS/s)", "samples/window", "general SR (%)",
            "voting@3 SR (%)",
        ],
        paper_reference={
            "argument": "~40 variables need 20x clock; majority voting's "
            "~10 variables relax the scope requirement (§5.4)"
        },
        notes=f"scale={scale.name}; decimated from the 2.5 GS/s capture",
    )
    for factor in DECIMATIONS:
        decimated = decimate(full, factor)
        train, test = decimated.split_random(fraction, rng)
        dis = SideChannelDisassembler(
            stationary_config(scale.components(43)), classifier_factory=factory
        )
        model = dis.fit_instruction_level(1, train)
        general_sr = model.score(test)
        voting = PairwiseVotingClassifier(
            stationary_config(3), classifier_factory=factory, n_variables=3
        )
        voting.fit(train)
        voting_sr = voting.score(test)
        table.add_row(
            **{
                "rate (GS/s)": round(2.5 / factor, 3),
                "samples/window": decimated.n_samples,
                "general SR (%)": general_sr * 100.0,
                "voting@3 SR (%)": voting_sr * 100.0,
            }
        )
    return table
