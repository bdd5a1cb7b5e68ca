"""Kullback-Leibler divergence fields over the time-frequency plane.

The paper's feature selector (§3.1) treats each of the 50x315 CWT points
as a Gaussian random variable per class and uses the closed-form KL
divergence between normal distributions:

    KL(N1 || N2) = log(s2/s1) + (s1^2 + (m1-m2)^2) / (2 s2^2) - 1/2

Two fields matter:

* the **between-class** field ``D_KL^B`` — high where two instruction
  classes differ;
* the **within-class** field ``D_KL^W`` — high where the same class drifts
  across program files (covariate shift).  Feature points must be *low*
  here to be "not-varying".

The fast paths here evaluate *all* pairs of a family (program pairs of
one class, or class pairs of a level) with a fused kernel instead of a
Python loop of two :func:`gaussian_kl` calls.  The key identity: in the
symmetrized (Jeffreys) divergence the log terms cancel,

    J = 0.25 * ((s1^2 + d^2)/s2^2 + (s2^2 + d^2)/s1^2 - 2),

so the symmetric fast path needs **no logarithms at all** and only one
reciprocal per distribution (precomputed per program/class, not per
pair).  It is algebraically identical to the reference composition of
two ``gaussian_kl`` calls; floating-point rounding differs by ~1e-15
absolute, far inside the 1e-9 parity budget (the per-pair loops are the
``within_class_kl`` / ``dnvp_fit`` test oracles).  The plain asymmetric
batched path keeps the per-pair arithmetic and stays bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from ..util.knobs import get_int

__all__ = [
    "StackedClassStats",
    "WaveletStats",
    "between_class_kl",
    "between_class_kl_matrix",
    "gaussian_kl",
    "symmetric_gaussian_kl",
    "within_class_kl",
]

_VAR_FLOOR = 1e-12


def _pair_block_size() -> int:
    """Pairs evaluated per block in the batched KL paths.

    Each pair occupies one ``(n_scales, n_samples)`` float64 plane per
    intermediate; blocking bounds peak memory without changing results
    (``REPRO_KL_BLOCK_PAIRS``, default 128 ≈ 16 MiB of intermediates on
    the paper's 50×315 plane).
    """
    return get_int("REPRO_KL_BLOCK_PAIRS")


def gaussian_kl(
    mean1: np.ndarray,
    var1: np.ndarray,
    mean2: np.ndarray,
    var2: np.ndarray,
) -> np.ndarray:
    """Closed-form KL(N1 || N2), element-wise."""
    var1 = np.maximum(np.asarray(var1, dtype=np.float64), _VAR_FLOOR)
    var2 = np.maximum(np.asarray(var2, dtype=np.float64), _VAR_FLOOR)
    mean1 = np.asarray(mean1, dtype=np.float64)
    mean2 = np.asarray(mean2, dtype=np.float64)
    return 0.5 * (
        np.log(var2 / var1) + (var1 + (mean1 - mean2) ** 2) / var2 - 1.0
    )


def symmetric_gaussian_kl(
    mean1: np.ndarray,
    var1: np.ndarray,
    mean2: np.ndarray,
    var2: np.ndarray,
) -> np.ndarray:
    """Symmetrized KL (Jeffreys divergence), element-wise."""
    return 0.5 * (
        gaussian_kl(mean1, var1, mean2, var2)
        + gaussian_kl(mean2, var2, mean1, var1)
    )


@dataclass
class WaveletStats:
    """Per-point Gaussian statistics of one class's CWT images.

    Attributes:
        mean / var: pooled ``(n_scales, n_samples)`` statistics.
        program_means / program_vars: ``(n_programs, n_scales, n_samples)``
            per-program-file statistics for the within-class field.
        program_ids: the program file id of each stats row.
        n: number of traces pooled.
    """

    mean: np.ndarray
    var: np.ndarray
    program_means: np.ndarray
    program_vars: np.ndarray
    program_ids: np.ndarray
    n: int

    @classmethod
    def from_images(
        cls, images: np.ndarray, program_ids: Optional[np.ndarray] = None
    ) -> "WaveletStats":
        """Compute statistics from ``(n, n_scales, n_samples)`` images."""
        images = np.asarray(images)
        if program_ids is None:
            program_ids = np.zeros(len(images), dtype=np.int64)
        program_ids = np.asarray(program_ids)
        unique, counts = np.unique(program_ids, return_counts=True)
        if len(unique) > 1 and np.all(counts == counts[0]):
            # Balanced captures (the common case): one grouped reduction
            # over a (P, c, S, T) view instead of P masked slices, with
            # float64 accumulation directly over the (float32) images —
            # no up-cast copy.  A stable sort keeps each program's rows
            # in capture order; already-sorted ids reshape in place.
            order = np.argsort(program_ids, kind="stable")
            if np.array_equal(order, np.arange(len(order))):
                sorted_images = images
            else:
                sorted_images = images[order]
            grouped = sorted_images.reshape(
                (len(unique), int(counts[0])) + images.shape[1:]
            )
            p_means = grouped.mean(axis=1, dtype=np.float64)
            p_vars = grouped.var(axis=1, dtype=np.float64)
            # Pooled moments by the (balanced) law of total variance —
            # exact up to float64 rounding, two fewer full passes.
            mean = p_means.mean(axis=0, dtype=np.float64)
            var = p_vars.mean(axis=0, dtype=np.float64)
            var += np.square(p_means - mean).mean(axis=0, dtype=np.float64)
        else:
            images64 = np.asarray(images, dtype=np.float64)
            p_means = np.empty((len(unique),) + images.shape[1:])
            p_vars = np.empty_like(p_means)
            for row, pid in enumerate(unique):
                block = images64[program_ids == pid]
                p_means[row] = block.mean(axis=0, dtype=np.float64)
                p_vars[row] = block.var(axis=0, dtype=np.float64)
            mean = images64.mean(axis=0, dtype=np.float64)
            var = images64.var(axis=0, dtype=np.float64)
        return cls(
            mean=mean,
            var=var,
            program_means=p_means,
            program_vars=p_vars,
            program_ids=unique,
            n=len(images),
        )

    @property
    def n_programs(self) -> int:
        """Number of distinct program files pooled."""
        return len(self.program_ids)


def between_class_kl(
    stats_a: WaveletStats, stats_b: WaveletStats, symmetric: bool = True
) -> np.ndarray:
    """The between-class field ``D_KL^B`` over the time-frequency plane."""
    fn = symmetric_gaussian_kl if symmetric else gaussian_kl
    return fn(stats_a.mean, stats_a.var, stats_b.mean, stats_b.var)


def _fused_jeffreys_pair(
    mean_i: np.ndarray,
    var_i: np.ndarray,
    inv_i: np.ndarray,
    mean_j: np.ndarray,
    var_j: np.ndarray,
    inv_j: np.ndarray,
    out: np.ndarray,
    tmp: np.ndarray,
) -> np.ndarray:
    """One pair of the log-free Jeffreys kernel, written into ``out``.

    Computes ``(v_i + d^2) * inv_j + (v_j + d^2) * inv_i`` — i.e. the
    Jeffreys divergence *before* the affine tail ``(x - 2) / 4``, which
    callers apply once after any max-reduction (it is monotonic, so the
    reduction commutes).  All eight element-wise passes run in-place on
    the two scratch planes; no temporaries are allocated.
    """
    np.subtract(mean_i, mean_j, out=out)
    np.multiply(out, out, out=out)  # d^2
    np.add(var_j, out, out=tmp)
    np.multiply(tmp, inv_i, out=tmp)  # (v_j + d^2) / v_i
    np.add(var_i, out, out=out)
    np.multiply(out, inv_j, out=out)  # (v_i + d^2) / v_j
    np.add(out, tmp, out=out)
    return out


def within_class_kl(stats: WaveletStats, symmetric: bool = True) -> np.ndarray:
    """The within-class field ``D_KL^W``: worst drift across program pairs.

    Returns the element-wise *maximum* over all program-file pairs — a
    point is "not-varying" only if it is stable for **every** pair
    (Definition 3.1 quantifies over all ``m != n``).

    The symmetric (default) path uses the log-free Jeffreys kernel with
    per-program reciprocals precomputed once and two reused scratch
    planes, then applies the monotonic affine tail after the pair-axis
    ``max`` — algebraically identical to the per-pair composition of two
    :func:`gaussian_kl` calls, with ~1e-15 absolute rounding differences.
    The asymmetric path gathers upper-triangle index pairs into
    ``(n_pairs, ...)`` stacks (blocked by ``REPRO_KL_BLOCK_PAIRS``) and is
    bit-exact with the per-pair loop.
    """
    n_programs = stats.n_programs
    if n_programs < 2:
        return np.zeros_like(stats.mean)
    if not symmetric:
        rows_i, rows_j = np.triu_indices(n_programs, k=1)
        worst = np.zeros_like(stats.mean)
        block = _pair_block_size()
        for start in range(0, len(rows_i), block):
            sel_i = rows_i[start:start + block]
            sel_j = rows_j[start:start + block]
            fields = gaussian_kl(
                stats.program_means[sel_i],
                stats.program_vars[sel_i],
                stats.program_means[sel_j],
                stats.program_vars[sel_j],
            )
            np.maximum(worst, fields.max(axis=0), out=worst)
        return worst
    means = np.asarray(stats.program_means, dtype=np.float64)
    varis = np.maximum(
        np.asarray(stats.program_vars, dtype=np.float64), _VAR_FLOOR
    )
    inv = 1.0 / varis
    plane = means.shape[1:]
    worst = np.full(plane, -np.inf)
    buf = np.empty(plane)
    tmp = np.empty(plane)
    for i in range(n_programs):
        for j in range(i + 1, n_programs):
            _fused_jeffreys_pair(
                means[i], varis[i], inv[i],
                means[j], varis[j], inv[j],
                buf, tmp,
            )
            np.maximum(worst, buf, out=worst)
    worst -= 2.0
    worst *= 0.25
    return worst


@dataclass
class StackedClassStats:
    """Per-class pooled statistics stacked into dense class-axis arrays.

    Stacking the per-class :class:`WaveletStats` means/vars into
    ``(n_classes, n_scales, n_samples)`` arrays lets every pairwise
    between-class field of a classification level be computed as one
    broadcasted KL evaluation (:func:`between_class_kl_matrix`) instead
    of ``K(K-1)/2`` Python-level calls.
    """

    names: Tuple[str, ...]
    means: np.ndarray  #: (n_classes, n_scales, n_samples)
    vars: np.ndarray  #: (n_classes, n_scales, n_samples)

    @classmethod
    def from_stats(
        cls,
        stats_by_class: Mapping[str, WaveletStats],
        names: Optional[Sequence[str]] = None,
    ) -> "StackedClassStats":
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


def between_class_kl_matrix(
    stacked: StackedClassStats, symmetric: bool = True
) -> np.ndarray:
    """All pairwise between-class fields, shape ``(n_pairs, S, T)``.

    Row ``p`` corresponds to ``between_class_kl(stats_a, stats_b)`` for
    the ``p``-th class pair in ``itertools.combinations(names, 2)``
    order (identical to ``zip(*stacked.pair_indices())``).  The
    symmetric (default) rows come from the log-free Jeffreys kernel
    writing straight into the output stack — algebraically identical to
    the per-pair calls with ~1e-15 absolute rounding differences; the
    asymmetric rows are bit-exact.
    """
    rows_i, rows_j = stacked.pair_indices()
    out = np.empty((len(rows_i),) + stacked.means.shape[1:], dtype=np.float64)
    if not symmetric:
        block = _pair_block_size()
        for start in range(0, len(rows_i), block):
            sel_i = rows_i[start:start + block]
            sel_j = rows_j[start:start + block]
            out[start:start + block] = gaussian_kl(
                stacked.means[sel_i],
                stacked.vars[sel_i],
                stacked.means[sel_j],
                stacked.vars[sel_j],
            )
        return out
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
