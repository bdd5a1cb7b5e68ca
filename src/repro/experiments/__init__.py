"""Experiment runners regenerating every table and figure of the paper."""

from . import (
    ablations,
    collection_factors,
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
    "collection_factors",
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

