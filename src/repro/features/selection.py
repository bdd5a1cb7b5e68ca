"""Distinct-and-not-varying feature point (DNVP) selection.

Implements Definition 3.1 of the paper:

1. ``NVP_c`` — points whose *within-class* KL divergence across program
   files stays below ``KL_th`` for every program pair;
2. ``DP`` — local maxima (peaks) of the *between-class* KL field;
3. ``DNVP = NVP_c1 ∩ NVP_c2 ∩ DP`` — and the ``top_k`` (paper: 5) highest
   peaks are kept per class pair;
4. the per-pair point sets are unified over all class pairs into the
   feature set handed to PCA (the paper reports 205 unified points for
   group 1, a 98.7 % reduction from 15,750).

Multi-class selection (:class:`DnvpSelector`, :func:`select_all_pairs`)
has a batched fast path: per-class within fields, NVP masks and pooled
Gaussians are computed once, and the per-pair selection fans over the
``repro.util.parallel`` pool in deterministic ``itertools.combinations``
order.  Each pair's task computes its own between-class field
(:func:`~repro.features.kl.between_class_field`) and drops it once its
peaks are ranked, so selection holds O(classes) planes, never the
``K(K-1)/2`` fields.  The serial per-pair loop is the ``dnvp_fit`` test
oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..util.parallel import parallel_map
from .kl import (
    PooledGaussian,
    WaveletStats,
    between_class_field,
    between_class_kl,
    within_class_kl,
)

__all__ = [
    "DnvpSelector",
    "PairSelection",
    "local_maxima_2d",
    "select_all_pairs",
    "select_pair_points",
    "unify_points",
]

Point = Tuple[int, int]


def local_maxima_2d(field: np.ndarray, include_plateau: bool = False) -> np.ndarray:
    """Boolean mask of 8-neighbourhood local maxima of a 2-D field.

    Args:
        field: ``(n_scales, n_samples)`` array.
        include_plateau: count ties with neighbours as maxima.
    """
    field = np.asarray(field, dtype=np.float64)
    padded = np.full(
        (field.shape[0] + 2, field.shape[1] + 2), -np.inf, dtype=np.float64
    )
    padded[1:-1, 1:-1] = field
    center = padded[1:-1, 1:-1]
    mask = np.ones_like(field, dtype=bool)
    compare = np.greater_equal if include_plateau else np.greater
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            neighbor = padded[1 + di:padded.shape[0] - 1 + di,
                              1 + dj:padded.shape[1] - 1 + dj]
            mask &= compare(center, neighbor)
    return mask


def _descending_order(values: np.ndarray) -> np.ndarray:
    """Flat indices sorting ``values`` descending, ties by lowest index.

    ``np.argsort(x)[::-1]`` is *unstable* under ties — reversing an
    ascending sort puts the **highest** flat index first among equals,
    and equal-key order may differ across sort kinds/platforms.  Sorting
    the negated values with a stable mergesort makes tie order the flat
    (row-major) point order, so selected points are reproducible across
    NumPy versions and platforms.  ``-inf`` sentinels still sort last.
    """
    return np.argsort(-values, axis=None, kind="stable")


def _ranked_masked_points(
    values: np.ndarray, flat_candidates: np.ndarray
) -> np.ndarray:
    """Candidate flat indices ranked by descending value, stable ties.

    Sorting only the (typically sparse) candidate set replaces the
    full-field argsort; because ``flat_candidates`` is ascending, the
    stable sort reproduces exactly the order the full-field
    :func:`_descending_order` would give those same points.
    """
    ranked = np.argsort(
        -values.ravel()[flat_candidates], kind="stable"
    )
    return flat_candidates[ranked]


@dataclass
class PairSelection:
    """Selection result for one class pair.

    :func:`select_pair_points` fills in the planes, the between field
    and the three masks (the diagnostics of Fig. 2); they are ``None``
    in the lean records of :func:`select_all_pairs`.
    """

    class_a: str
    class_b: str
    points: List[Point]
    between_field: Optional[np.ndarray] = None
    nvp_mask_a: Optional[np.ndarray] = None
    nvp_mask_b: Optional[np.ndarray] = None
    peaks_mask: Optional[np.ndarray] = None
    relaxed: bool = False  #: True when the strict DNVP intersection was empty


def resolve_threshold(kl_threshold, within_field: np.ndarray) -> float:
    """Resolve a threshold spec against one class's within-KL field.

    ``kl_threshold`` may be a float (the paper's absolute ``KL_th``), the
    string ``"auto"`` (25th percentile of the within-class field — adapts
    to the KL estimation noise floor when per-program trace budgets are
    far below the paper's 250), or ``"auto:<q>"`` for an explicit
    quantile, e.g. ``"auto:0.5"``.
    """
    if isinstance(kl_threshold, str):
        if kl_threshold == "auto":
            quantile = 0.25
        elif kl_threshold.startswith("auto:"):
            quantile = float(kl_threshold.split(":", 1)[1])
        else:
            raise ValueError(f"unknown threshold spec {kl_threshold!r}")
        return float(np.quantile(within_field, quantile))
    return float(kl_threshold)


def select_pair_points(
    stats_a: WaveletStats,
    stats_b: WaveletStats,
    kl_threshold=0.005,
    top_k: int = 5,
    class_a: str = "a",
    class_b: str = "b",
    within_a: Optional[np.ndarray] = None,
    within_b: Optional[np.ndarray] = None,
    between: Optional[np.ndarray] = None,
    nvp_a: Optional[np.ndarray] = None,
    nvp_b: Optional[np.ndarray] = None,
) -> PairSelection:
    """Select the ``top_k`` DNVP points discriminating one class pair.

    When the strict intersection ``NVP_a ∩ NVP_b ∩ DP`` has fewer than
    ``top_k`` points, the threshold is relaxed by ranking peak points by
    between-KL *penalized* by within-KL (so the most stable peaks win) —
    the selection never returns an empty feature set.

    ``within_a`` / ``within_b`` / ``between`` / ``nvp_a`` / ``nvp_b``
    accept precomputed fields and NVP masks (the multi-class fast path
    computes the fields in batch and resolves each class's threshold and
    mask once instead of once per pair); omitted inputs are computed
    here.  Ranking sorts only the masked candidate set, which is
    order-identical to a stable full-field descending sort.
    """
    if between is None:
        between = between_class_kl(stats_a, stats_b)
    peaks = local_maxima_2d(between)
    if within_a is None:
        within_a = within_class_kl(stats_a)
    if within_b is None:
        within_b = within_class_kl(stats_b)
    if nvp_a is None:
        nvp_a = within_a < resolve_threshold(kl_threshold, within_a)
    if nvp_b is None:
        nvp_b = within_b < resolve_threshold(kl_threshold, within_b)
    dnvp_mask = peaks & nvp_a & nvp_b

    candidates = _ranked_masked_points(between, np.flatnonzero(dnvp_mask))
    points: List[Point] = [
        (int(j), int(k))
        for j, k in zip(*np.unravel_index(candidates[:top_k], between.shape))
    ]

    relaxed = False
    if len(points) < top_k:
        # Relaxation tier: every peak, ranked by stability-penalized KL.
        relaxed = True
        worst_within = np.maximum(within_a, within_b)
        scale = max(resolve_threshold(kl_threshold, worst_within), 1e-12)
        peak_flat = np.flatnonzero(peaks)
        penalized = between.ravel()[peak_flat] / (
            1.0 + worst_within.ravel()[peak_flat] / scale
        )
        ranked = peak_flat[np.argsort(-penalized, kind="stable")]
        chosen = set(points)
        for j, k in zip(*np.unravel_index(ranked, between.shape)):
            point = (int(j), int(k))
            if point in chosen:
                continue
            points.append(point)
            chosen.add(point)
            if len(points) == top_k:
                break
    return PairSelection(
        class_a=class_a,
        class_b=class_b,
        points=points,
        between_field=between,
        nvp_mask_a=nvp_a,
        nvp_mask_b=nvp_b,
        peaks_mask=peaks,
        relaxed=relaxed,
    )


class _PairSelectionTask:
    """Picklable per-class-pair selection job for the worker pool.

    Holds the per-class inputs (stats, within fields, NVP masks, pooled
    Gaussians) once; each work item is a pair index into the
    deterministic ``itertools.combinations`` pair list, so results come
    back in the same order the serial loop would produce them.
    """

    def __init__(
        self,
        stats_by_class: Mapping[str, WaveletStats],
        names: Sequence[str],
        pairs: Sequence[Tuple[int, int]],
        within: Mapping[str, np.ndarray],
        nvp: Mapping[str, np.ndarray],
        gaussians: Mapping[str, PooledGaussian],
        kl_threshold,
        top_k: int,
    ) -> None:
        self.stats_by_class = dict(stats_by_class)
        self.names = list(names)
        self.pairs = list(pairs)
        self.within = dict(within)
        self.nvp = dict(nvp)
        self.gaussians = dict(gaussians)
        self.kl_threshold = kl_threshold
        self.top_k = top_k

    def __call__(self, pair_index: int) -> PairSelection:
        a, b = self.pairs[pair_index]
        name_a, name_b = self.names[a], self.names[b]
        selection = select_pair_points(
            self.stats_by_class[name_a],
            self.stats_by_class[name_b],
            kl_threshold=self.kl_threshold,
            top_k=self.top_k,
            class_a=name_a,
            class_b=name_b,
            within_a=self.within[name_a],
            within_b=self.within[name_b],
            between=between_class_field(
                self.gaussians[name_a], self.gaussians[name_b]
            ),
            nvp_a=self.nvp[name_a],
            nvp_b=self.nvp[name_b],
        )
        return PairSelection(
            name_a, name_b, selection.points, relaxed=selection.relaxed
        )


def select_all_pairs(
    stats_by_class: Mapping[str, WaveletStats],
    kl_threshold=0.005,
    top_k: int = 5,
    names: Optional[Sequence[str]] = None,
    n_jobs: Optional[int] = None,
) -> List[PairSelection]:
    """Batched selection over every class pair (the multi-class fast path).

    Within fields are computed once per class (fused program-pair
    kernel) and each class's NVP threshold and mask are resolved once —
    not once per pair appearance, which matters for ``"auto"``
    (quantile) thresholds.  Each class's :class:`PooledGaussian` is
    prepared once too; a pair's task computes its between field from
    the two and ranks its peaks, fanned over the process pool
    (``n_jobs`` → ``REPRO_N_JOBS`` → serial) with results in
    deterministic pair order for any worker count.

    Records are lean (class names, points, ``relaxed``) and a pair's
    field is dropped once its peaks are ranked, so the working set is
    linear in the class count; :func:`select_pair_points` returns one
    pair's planes to a caller that wants them.
    """
    if names is None:
        names = list(stats_by_class)
    within = {
        name: within_class_kl(stats_by_class[name])
        for name in names
    }
    nvp = {
        name: within[name] < resolve_threshold(kl_threshold, within[name])
        for name in names
    }
    gaussians = {
        name: PooledGaussian.of(stats_by_class[name]) for name in names
    }
    pairs = list(itertools.combinations(range(len(names)), 2))
    task = _PairSelectionTask(
        stats_by_class, names, pairs, within, nvp, gaussians,
        kl_threshold, top_k,
    )
    return parallel_map(task, range(len(pairs)), n_jobs=n_jobs)


def unify_points(selections: Sequence[PairSelection]) -> List[Point]:
    """Union of per-pair point sets, in deterministic order."""
    unified = sorted({point for sel in selections for point in sel.points})
    return unified


class DnvpSelector:
    """Multi-class DNVP selection over per-class wavelet statistics.

    A fitted selector keeps its unified ``points`` and each class pair's
    ``pair_points``; no KL field or mask outlives :meth:`fit`.

    Args:
        kl_threshold: within-class stability threshold ``KL_th``
            (paper: 0.005; 0.0005 with covariate shift adaptation).
        top_k: peaks kept per class pair (paper: 5).
        n_jobs: worker count for the per-pair selection fan (``None`` →
            ``REPRO_N_JOBS`` → serial); any value yields identical points.
    """

    def __init__(
        self, kl_threshold=0.005, top_k: int = 5, n_jobs: Optional[int] = None
    ) -> None:
        self.kl_threshold = kl_threshold
        self.top_k = top_k
        self.n_jobs = n_jobs
        self.points: List[Point] = []
        self.pair_points: Dict[Tuple[str, str], List[Point]] = {}

    def __setstate__(self, state) -> None:
        # Selectors pickled before they went lean also carry every pair's
        # PairSelection, planes included; nothing reads them, so a loaded
        # template holds only what inference needs.
        state.pop("pair_selections", None)
        self.__dict__.update(state)

    def _finalize(self, selections: Sequence[PairSelection]) -> "DnvpSelector":
        self.pair_points = {
            (sel.class_a, sel.class_b): sel.points for sel in selections
        }
        self.points = unify_points(selections)
        return self

    def fit(
        self, stats_by_class: Mapping[str, WaveletStats]
    ) -> "DnvpSelector":
        """Select unified feature points from all class pairs."""
        return self._finalize(
            select_all_pairs(
                stats_by_class,
                kl_threshold=self.kl_threshold,
                top_k=self.top_k,
                n_jobs=self.n_jobs,
            )
        )

    @property
    def n_points(self) -> int:
        """Size of the unified feature set."""
        return len(self.points)


def extract_points(images: np.ndarray, points: Sequence[Point]) -> np.ndarray:
    """Gather ``(n_traces, n_points)`` values at time-frequency points."""
    images = np.asarray(images)
    if not points:
        raise ValueError("no feature points selected")
    scales = np.array([p[0] for p in points])
    times = np.array([p[1] for p in points])
    if images.ndim == 2:
        return images[scales, times]
    return images[:, scales, times]
