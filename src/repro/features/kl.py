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
``within_class_kl`` / ``dnvp_fit`` test oracles).

The per-point Gaussians themselves are streamed: :class:`WaveletStats`
is built from a float64 count, mean and M2 per program file, merged
block by block with Chan et al.'s parallel update, so no caller ever
holds a class's full time-frequency plane.  Each block's mean/M2
reduction runs on threads, one column tile of the plane at a time; the
reduction is along the row axis, so every column sees the same
operations for any thread count, and the Chan merges stay in order on
the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..util.parallel import run_threads, thread_workers

__all__ = [
    "PooledGaussian",
    "WaveletStats",
    "between_class_field",
    "between_class_kl",
    "gaussian_kl",
    "symmetric_gaussian_kl",
    "within_class_kl",
]

_VAR_FLOOR = 1e-12

#: Rows per block of the streamed statistics (:meth:`WaveletStats.stream`).
#: A constant, not a knob: block boundaries fix the merge order, so the
#: statistics — and every model fitted on them — cannot depend on a
#: memory setting.  256 rows of the paper's 50×315 plane are 16 MiB of
#: float32 images per block.
STATS_BLOCK_ROWS = 256

#: Run elements per moment-reduction task (:func:`_block_moments`): each
#: run's plane columns are cut into ``ceil(run.size / _TILE_ELEMENTS)``
#: equal tiles, so a task's float64 copy stays near 2 MiB.  The tiling
#: depends on the run's shape only, never on the thread count, and a tile
#: of a run of at most ``STATS_BLOCK_ROWS`` rows keeps 512+ columns: wide
#: column slices reduce row by row exactly like the whole plane (a
#: one-column slice would switch NumPy to pairwise summation).
_TILE_ELEMENTS = 1 << 18


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
        """Statistics of an in-memory ``(n, n_scales, n_samples)`` stack.

        The same streamed accumulator as :meth:`stream`, fed by slicing.
        """
        images = np.asarray(images)
        if program_ids is None:
            program_ids = np.zeros(len(images), dtype=np.int64)
        return cls.stream(program_ids, lambda rows: images[rows])

    @classmethod
    def stream(
        cls,
        program_ids: np.ndarray,
        images_of: Callable[[np.ndarray], np.ndarray],
        on_workers: Optional[Callable[[int], None]] = None,
    ) -> "WaveletStats":
        """Statistics of images produced one block of rows at a time.

        Rows are visited in stable program-id order, ``STATS_BLOCK_ROWS``
        at a time; ``images_of(rows)`` returns the images of those rows.
        Each program's float64 count, mean and M2 absorb the block with
        Chan et al.'s parallel update, and the pooled moments follow from
        the per-program ones by the law of total variance — so at most
        one block of images is ever held.  ``on_workers``, if given, is
        called with the threads each block's moment reduction ran on.
        """
        program_ids = np.asarray(program_ids)
        order = np.argsort(program_ids, kind="stable")
        moments: Dict[object, Tuple[int, np.ndarray, np.ndarray]] = {}
        for start in range(0, len(order), STATS_BLOCK_ROWS):
            rows = order[start:start + STATS_BLOCK_ROWS]
            block = images_of(rows)
            ids = program_ids[rows]
            cuts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
            bounds = list(zip(np.r_[0, cuts], np.r_[cuts, len(ids)]))
            runs, workers = _block_moments(block, bounds)
            if on_workers is not None:
                on_workers(workers)
            for (lo, hi), (mean, m2) in zip(bounds, runs):
                _merge_moments(moments, ids[lo], int(hi - lo), mean, m2)
        counts = np.array([n for n, _, _ in moments.values()])
        p_means = np.stack([mean for _, mean, _ in moments.values()])
        p_vars = np.stack([m2 / n for n, _, m2 in moments.values()])
        mean = np.average(p_means, axis=0, weights=counts)
        var = np.average(
            p_vars + np.square(p_means - mean), axis=0, weights=counts
        )
        return cls(
            mean=mean,
            var=var,
            program_means=p_means,
            program_vars=p_vars,
            program_ids=np.array(list(moments), dtype=program_ids.dtype),
            n=len(program_ids),
        )

    @property
    def n_programs(self) -> int:
        """Number of distinct program files pooled."""
        return len(self.program_ids)


def _block_moments(
    block: np.ndarray, bounds: Sequence[Tuple[int, int]]
) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], int]:
    """Float64 mean and M2 along the rows of each run ``block[lo:hi]``.

    Every run is cut into column tiles, and the tiles of all runs run on
    threads.  A tile applies to each of its elements the operations a
    whole-run reduction applies, and tiles write disjoint columns, so
    the moments are the same bits for any thread count (and the same as
    the untiled reduction's).  Returns the per-run moments and the
    thread count.
    """
    flat = block.reshape(len(block), -1)
    width = flat.shape[1]
    sums = [(np.empty(width), np.empty(width)) for _ in bounds]
    tiles = []
    for run, (lo, hi) in enumerate(bounds):
        n_tiles = -(-(hi - lo) * width // _TILE_ELEMENTS)
        edges = np.linspace(0, width, n_tiles + 1).astype(int)
        tiles += [(run, a, b) for a, b in zip(edges[:-1], edges[1:])]

    def reduce_tile(tile: Tuple[int, int, int]) -> None:
        run, a, b = tile
        lo, hi = bounds[run]
        mean, m2 = sums[run]
        # One float64 copy serves both passes; the row-order sums are
        # those of ``mean``/``var`` with ``dtype=float64``.
        dev = flat[lo:hi, a:b].astype(np.float64)
        dev.mean(axis=0, dtype=np.float64, out=mean[a:b])
        np.subtract(dev, mean[a:b], out=dev)
        np.multiply(dev, dev, out=dev)
        dev.sum(axis=0, dtype=np.float64, out=m2[a:b])

    workers = thread_workers(len(tiles))
    run_threads(reduce_tile, tiles, workers)
    plane = block.shape[1:]
    runs = [(mean.reshape(plane), m2.reshape(plane)) for mean, m2 in sums]
    return runs, workers


def _merge_moments(
    moments: Dict[object, Tuple[int, np.ndarray, np.ndarray]],
    program: object,
    count: int,
    mean: np.ndarray,
    m2: np.ndarray,
) -> None:
    """Fold one run's ``(count, mean, M2)`` into its program's moments.

    A program's first run sets its moments directly (bit-identical to
    NumPy's ``mean``/``var`` over the run); later runs merge by Chan et
    al.'s pairwise update.
    """
    if program not in moments:
        moments[program] = (count, mean, m2)
        return
    n_a, mean_a, m2_a = moments[program]
    total = n_a + count
    delta = mean - mean_a
    mean_a += delta * (count / total)
    m2_a += m2 + np.square(delta) * (n_a * count / total)
    moments[program] = (total, mean_a, m2_a)


def between_class_kl(
    stats_a: WaveletStats, stats_b: WaveletStats
) -> np.ndarray:
    """The between-class field ``D_KL^B`` over the time-frequency plane."""
    return symmetric_gaussian_kl(
        stats_a.mean, stats_a.var, stats_b.mean, stats_b.var
    )


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


def within_class_kl(stats: WaveletStats) -> np.ndarray:
    """The within-class field ``D_KL^W``: worst drift across program pairs.

    Returns the element-wise *maximum* over all program-file pairs — a
    point is "not-varying" only if it is stable for **every** pair
    (Definition 3.1 quantifies over all ``m != n``).

    Uses the log-free Jeffreys kernel with per-program reciprocals
    precomputed once and two reused scratch planes, then applies the
    monotonic affine tail after the pair-axis ``max`` — algebraically
    identical to the per-pair composition of two :func:`gaussian_kl`
    calls, with ~1e-15 absolute rounding differences.
    """
    n_programs = stats.n_programs
    if n_programs < 2:
        return np.zeros_like(stats.mean)
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
class PooledGaussian:
    """One class's pooled per-point Gaussian, prepared for the fused kernel.

    The float64 mean, the variance floored at ``_VAR_FLOOR`` and its
    reciprocal: computed once per class, so a class pair's
    :func:`between_class_field` costs only the kernel's passes.
    """

    mean: np.ndarray
    var: np.ndarray
    inv: np.ndarray

    @classmethod
    def of(cls, stats: WaveletStats) -> "PooledGaussian":
        mean = np.asarray(stats.mean, dtype=np.float64)
        var = np.maximum(np.asarray(stats.var, dtype=np.float64), _VAR_FLOOR)
        return cls(mean=mean, var=var, inv=1.0 / var)


def between_class_field(a: PooledGaussian, b: PooledGaussian) -> np.ndarray:
    """The between-class field ``D_KL^B`` of one class pair, log-free.

    The fused Jeffreys kernel plus its affine tail, on two fresh planes:
    a multi-class fit computes each pair's field when it ranks that
    pair's peaks and drops it after, so no more than a pair's planes
    are ever alive beyond the per-class ones.  Agrees with
    :func:`between_class_kl` to ~1e-15 absolute.
    """
    out = np.empty(a.mean.shape)
    tmp = np.empty(a.mean.shape)
    _fused_jeffreys_pair(a.mean, a.var, a.inv, b.mean, b.var, b.inv, out, tmp)
    out -= 2.0
    out *= 0.25
    return out
