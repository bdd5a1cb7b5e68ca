"""Experiment runners regenerating every table and figure of the paper.

:mod:`repro.experiments.campaign` is not imported here: it runs as
``python -m repro.experiments.campaign``, and a package that imported it
first would make runpy execute it a second time as ``__main__`` (with a
``RuntimeWarning``).  ``repro.experiments.campaign`` still resolves as
an attribute, on first use.
"""

import importlib

from . import (
    ablations,
    endtoend,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    malware,
    multisession,
    robustness,
    sampling_rate,
    svm_grid,
    table1,
    table2,
    table3,
    table4,
)
from .checkpoint import CheckpointStore, checkpoint_store
from .configs import (
    CLASSIFIERS,
    csa_config_full,
    csa_config_nonorm,
    no_csa_config,
    register_config,
    stationary_config,
)
from .results import ResultTable
from .scales import BENCH, PAPER, SMOKE, Scale, get_scale

__all__ = [
    "BENCH",
    "CLASSIFIERS",
    "CheckpointStore",
    "PAPER",
    "ResultTable",
    "SMOKE",
    "Scale",
    "ablations",
    "checkpoint_store",
    "csa_config_full",
    "csa_config_nonorm",
    "endtoend",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "get_scale",
    "malware",
    "multisession",
    "no_csa_config",
    "register_config",
    "robustness",
    "sampling_rate",
    "stationary_config",
    "svm_grid",
    "table1",
    "table2",
    "table3",
    "table4",
]


def __getattr__(name: str):
    if name == "campaign":
        return importlib.import_module(f"{__name__}.campaign")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
