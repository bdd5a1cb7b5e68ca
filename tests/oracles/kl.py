"""KL-field and DNVP-selection oracles: per-pair Python loops."""

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.features.kl import (
    _VAR_FLOOR,
    WaveletStats,
    _fused_jeffreys_pair,
    symmetric_gaussian_kl,
)
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


def dnvp_pair_selections(selector, stats_by_class):
    """Every class pair's full :class:`PairSelection`, one pair at a time.

    Loop-based within fields, then one :func:`select_pair_points` call
    per class pair, each computing its own between field (with
    logarithms) and keeping it in the record.  Reference for
    :func:`repro.features.selection.select_all_pairs`, whose records
    keep only names, points and ``relaxed``.
    """
    names = list(stats_by_class)
    within = {name: within_class_kl(stats_by_class[name]) for name in names}
    return [
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


def dnvp_fit(selector, stats_by_class):
    """Serial :meth:`repro.features.selection.DnvpSelector.fit`."""
    return selector._finalize(dnvp_pair_selections(selector, stats_by_class))


@dataclass
class StackedWaveletStats:
    """Per-class pooled statistics stacked into dense class-axis arrays.

    The layout the multi-class selection once evaluated every between
    field in: ``(n_classes, n_scales, n_samples)`` means and variances.
    """

    names: Tuple[str, ...]
    means: np.ndarray  #: (n_classes, n_scales, n_samples)
    vars: np.ndarray  #: (n_classes, n_scales, n_samples)

    @classmethod
    def from_stats(
        cls,
        stats_by_class: Mapping[str, WaveletStats],
        names: Optional[Sequence[str]] = None,
    ) -> "StackedWaveletStats":
        """Stack a ``name -> WaveletStats`` mapping (order preserved)."""
        if names is None:
            names = list(stats_by_class)
        means = np.stack(
            [np.asarray(stats_by_class[n].mean, dtype=np.float64) for n in names]
        )
        variances = np.stack(
            [np.asarray(stats_by_class[n].var, dtype=np.float64) for n in names]
        )
        return cls(names=tuple(names), means=means, vars=variances)

    @property
    def n_classes(self) -> int:
        return len(self.names)

    def pair_indices(self) -> Tuple[np.ndarray, np.ndarray]:
        """Upper-triangle class pair indices, ``itertools.combinations`` order."""
        return np.triu_indices(self.n_classes, k=1)


def between_class_kl_matrix(stacked: StackedWaveletStats) -> np.ndarray:
    """All ``K(K-1)/2`` between-class fields as one ``(n_pairs, S, T)`` stack.

    The stacked evaluation :func:`repro.features.kl.between_class_field`
    replaced: the same fused kernel and affine tail, row ``p`` for the
    ``p``-th pair in ``itertools.combinations`` order, so each row is the
    per-pair field's bits.
    """
    rows_i, rows_j = stacked.pair_indices()
    out = np.empty((len(rows_i),) + stacked.means.shape[1:], dtype=np.float64)
    means = np.asarray(stacked.means, dtype=np.float64)
    varis = np.maximum(np.asarray(stacked.vars, dtype=np.float64), _VAR_FLOOR)
    inv = 1.0 / varis
    tmp = np.empty(means.shape[1:])
    for row in range(len(rows_i)):
        i, j = rows_i[row], rows_j[row]
        buf = _fused_jeffreys_pair(
            means[i], varis[i], inv[i],
            means[j], varis[j], inv[j],
            out[row], tmp,
        )
        buf -= 2.0
        buf *= 0.25
    return out
