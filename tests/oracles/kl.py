"""KL-field and DNVP-selection oracles: per-pair Python loops."""

import itertools

import numpy as np

from repro.features.kl import symmetric_gaussian_kl
from repro.features.selection import select_pair_points


def within_class_kl(stats) -> np.ndarray:
    """Worst drift over every program pair, two ``gaussian_kl`` calls each.

    Reference for :func:`repro.features.kl.within_class_kl`, whose fused
    kernel drops the logarithms (they cancel) and so agrees to ~1e-15
    absolute.
    """
    if stats.n_programs < 2:
        return np.zeros_like(stats.mean)
    worst = np.zeros_like(stats.mean)
    for i in range(stats.n_programs):
        for j in range(i + 1, stats.n_programs):
            field = symmetric_gaussian_kl(
                stats.program_means[i],
                stats.program_vars[i],
                stats.program_means[j],
                stats.program_vars[j],
            )
            np.maximum(worst, field, out=worst)
    return worst


def dnvp_fit(selector, stats_by_class):
    """Serial :meth:`repro.features.selection.DnvpSelector.fit`.

    Loop-based within fields, then one :func:`select_pair_points` call
    per class pair, each computing its own between field.
    """
    names = list(stats_by_class)
    within = {name: within_class_kl(stats_by_class[name]) for name in names}
    selections = [
        select_pair_points(
            stats_by_class[name_a],
            stats_by_class[name_b],
            kl_threshold=selector.kl_threshold,
            top_k=selector.top_k,
            class_a=name_a,
            class_b=name_b,
            within_a=within[name_a],
            within_b=within[name_b],
        )
        for name_a, name_b in itertools.combinations(names, 2)
    ]
    return selector._finalize(selections)
