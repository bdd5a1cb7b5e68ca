"""End-to-end feature pipeline: CWT -> KL/DNVP selection -> normalize -> PCA.

This is the preprocessing object shared by every classifier in the
disassembler.  It is fitted on labelled training traces (with their
program-file provenance) and then applied identically to traces from the
target device — exactly the flow of the paper's Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..dsp.cwt import CWT, CwtConfig, get_cwt
from ..obs import trace as _obs
from .kl import STATS_BLOCK_ROWS, WaveletStats
from .pca import PCA
from .selection import DnvpSelector, Point

__all__ = [
    "FeatureConfig",
    "FeaturePipeline",
    "compute_class_stats",
    "folded_point_matrix",
    "point_values",
]


def compute_class_stats(
    traces: np.ndarray,
    labels: np.ndarray,
    program_ids: np.ndarray,
    label_names: Sequence[str],
    cwt: Optional[CWT],
) -> Dict[str, WaveletStats]:
    """Per-class wavelet statistics (time-domain pseudo-images if no CWT).

    Each class is transformed and reduced one block of rows at a time
    (:meth:`WaveletStats.stream`), every block into one reused image
    buffer, so only one block's images are ever held;
    ``REPRO_CWT_MEM_MB`` bounds the transform inside a block.  The
    transform's chunks and the moment reduction's column tiles run on
    the usable cores; the statistics are bit-identical for any count.
    The ``kl.stats`` span records the most threads a moment reduction
    ran on (each ``cwt.batch`` span records its transform's).
    """
    traces = np.asarray(traces)  # replint: disable=REP009 -- row gather only; both sinks re-pin (cwt.transform casts to its real dtype, the pseudo-image branch pins float32)
    labels = np.asarray(labels)
    program_ids = np.asarray(program_ids)
    class_rows = [
        np.flatnonzero(labels == code) for code in range(len(label_names))
    ]
    largest = max((len(rows) for rows in class_rows), default=0)
    n_scales = cwt.config.n_scales if cwt is not None else 1
    buffer = np.empty(
        (min(STATS_BLOCK_ROWS, largest), n_scales, traces.shape[1]),
        dtype=np.float32,
    )

    def images_of(rows: np.ndarray) -> np.ndarray:
        block = buffer[: len(rows)]
        if cwt is not None:
            return cwt.transform(traces[rows], out=block)
        block[:, 0] = traces[rows]
        return block

    stats: Dict[str, WaveletStats] = {}
    workers = [1]
    with _obs.span("kl.stats", n_classes=len(label_names)) as span:
        for name, rows in zip(label_names, class_rows):
            if len(rows) == 0:
                raise ValueError(f"class {name!r} has no traces")
            stats[name] = WaveletStats.stream(
                program_ids[rows],
                lambda block: images_of(rows[block]),
                on_workers=workers.append,
            )
        span.annotate(workers=max(workers))
    return stats


def folded_point_matrix(cwt: CWT, points: Sequence[Point]) -> np.ndarray:
    """The selected points as one real ``(n_samples, P or 2P)`` matrix.

    Stacks ``[Re K | Im K]`` (or just ``Re K`` without magnitude) of
    ``K = cwt.point_operator(points)``, in float64.
    """
    operator = cwt.point_operator(points)
    if cwt.config.magnitude:
        matrix = np.hstack([operator.real, operator.imag])
    else:
        matrix = operator.real
    return np.ascontiguousarray(matrix)


def point_values(
    traces: np.ndarray,
    points: Sequence[Point],
    cwt: Optional[CWT] = None,
    matrix: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Selected-point values of raw traces: the one route, fit and serve.

    With a CWT this is one GEMM against ``matrix`` (the
    :func:`folded_point_matrix` of ``points``, built here when omitted)
    plus a modulus; without one, the time-domain samples at the
    points' time indices.  Inputs are quantized to the transform's
    working precision first, but the product itself runs in float64: a
    float32 product is not row-deterministic across batch shapes (BLAS
    blocking), and single-trace and batched transforms must agree.
    """
    if cwt is None:
        times = np.array([k for (_, k) in points])
        return np.asarray(traces, dtype=np.float64)[:, times]
    if matrix is None:
        matrix = folded_point_matrix(cwt, points)
    quantize_dtype = (
        np.float32 if cwt.config.precision == "single" else np.float64
    )
    batch = np.asarray(traces, dtype=quantize_dtype)
    product = batch.astype(np.float64, copy=False) @ matrix
    if not cwt.config.magnitude:
        return product
    real = product[:, : len(points)]
    imag = product[:, len(points):]
    return np.sqrt(real * real + imag * imag)


@dataclass(frozen=True)
class FeatureConfig:
    """Feature pipeline hyper-parameters.

    Attributes:
        kl_threshold: within-class stability threshold ``KL_th``
            (paper: 0.005 default, 0.0005 for covariate shift adaptation).
        top_k: DNVP points kept per class pair (paper: 5).
        n_components: principal components kept (``None`` = all).
        normalize: feature-value normalization mode (§5.5):

            * ``"batch"`` — the CSA normalization: each DNVP feature
              column is standardized with the statistics of the batch it
              belongs to (training batch at fit time, evaluation batch at
              transform time).  A per-program/per-device gain scales every
              CWT magnitude column multiplicatively and a DC offset moves
              the low-frequency columns additively, so matching the first
              two marginal moments of each column removes the shift —
              textbook covariate shift adaptation.  ``"per_trace"`` is
              accepted as an alias.  Evaluation batches should come from
              one environment (one program/device), as in the paper; tiny
              batches (< 8 traces) fall back to training statistics.
            * ``"train_stats"`` — z-score with training statistics only
              (no test-time adaptation — exposed to covariate shift).
            * ``"none"`` — raw DNVP values (fully exposed; reproduces the
              paper's 18.5 % no-CSA collapse in Table 3).
        use_cwt: when False, skip the wavelet transform and select points
            directly on time-domain samples (ablation baseline).
        cwt: wavelet parameters.
        min_batch_for_adaptation: smallest evaluation batch that gets
            ``"batch"`` normalization; smaller ones use training
            statistics.
        n_jobs: worker count for the per-pair DNVP selection fan
            (``None`` → ``REPRO_N_JOBS`` → serial; results identical for
            any value).
    """

    kl_threshold: float = 0.005
    top_k: int = 5
    n_components: Optional[int] = 25
    normalize: str = "train_stats"
    use_cwt: bool = True
    cwt: CwtConfig = field(default_factory=CwtConfig)
    min_batch_for_adaptation: int = 8
    n_jobs: Optional[int] = None

    def with_overrides(self, **kwargs) -> "FeatureConfig":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)


class FeaturePipeline:
    """Fit on training traces, transform any traces into classifier inputs.

    Args:
        config: pipeline hyper-parameters.

    Attributes (after :meth:`fit`):
        selector: the fitted :class:`DnvpSelector` (points per class pair).
        points: unified feature points.
        pca: fitted :class:`PCA`.
    """

    def __init__(self, config: Optional[FeatureConfig] = None) -> None:
        self.config = config if config is not None else FeatureConfig()
        if self.config.normalize not in ("batch", "per_trace", "train_stats", "none"):
            raise ValueError(f"unknown normalize mode {self.config.normalize!r}")
        self.selector: Optional[DnvpSelector] = None
        self.points: List[Point] = []
        self.pca: Optional[PCA] = None
        self._cwt: Optional[CWT] = None
        self._n_samples: Optional[int] = None
        self._feature_mean: Optional[np.ndarray] = None
        self._feature_std: Optional[np.ndarray] = None
        self._point_gemm: Optional[np.ndarray] = None

    def __getstate__(self):
        # The folded point-operator cache is derived state: drop it from
        # pickles (it rebuilds lazily) so artifacts stay small.
        state = self.__dict__.copy()
        state["_point_gemm"] = None
        return state

    # -- internals -----------------------------------------------------------
    def _point_values(self, traces: np.ndarray) -> np.ndarray:
        """Unified DNVP feature values for raw traces (fit and transform)."""
        if not self.config.use_cwt:
            return point_values(traces, self.points)
        return point_values(
            traces, self.points, self._cwt, self._folded_points()
        )

    def _folded_points(self) -> np.ndarray:
        """:func:`folded_point_matrix` of the fitted points, built once.

        Shared by fitting, :meth:`transform` and
        :meth:`repro.features.compiled.CompiledPipeline.build`.
        """
        if self._point_gemm is None:
            assert self._cwt is not None
            self._point_gemm = folded_point_matrix(self._cwt, self.points)
        return self._point_gemm

    def _normalize(
        self, values: np.ndarray, fit: bool, adapt: Optional[bool] = None
    ) -> np.ndarray:
        mode = self.config.normalize
        if mode == "none":
            return values
        if fit:
            self._feature_mean = values.mean(axis=0, dtype=np.float64)
            std = values.std(axis=0, dtype=np.float64)
            self._feature_std = np.where(std == 0, 1.0, std)
        if self._feature_mean is None or self._feature_std is None:
            raise RuntimeError("pipeline is not fitted")
        if adapt is None:
            adapt = mode in ("batch", "per_trace")
        adapt = (
            adapt
            and not fit
            and len(values) >= self.config.min_batch_for_adaptation
        )
        if adapt:
            mean = values.mean(axis=0, dtype=np.float64)
            std = values.std(axis=0, dtype=np.float64)
            std = np.where(std == 0, 1.0, std)
            return (values - mean) / std
        return (values - self._feature_mean) / self._feature_std

    # -- public API -----------------------------------------------------------
    def fit(
        self,
        traces: np.ndarray,
        labels: np.ndarray,
        program_ids: np.ndarray,
        label_names: Sequence[str],
    ) -> "FeaturePipeline":
        """Fit selection, normalization and PCA on training traces."""
        self._fit(traces, labels, program_ids, label_names)
        return self

    def fit_transform(
        self,
        traces: np.ndarray,
        labels: np.ndarray,
        program_ids: np.ndarray,
        label_names: Sequence[str],
        n_components: Optional[int] = None,
    ) -> np.ndarray:
        """Fit and return the training features in one pass.

        Equal to ``fit(...)`` followed by ``transform(traces,
        adapt=False)``: fitting takes its point values from the same
        folded GEMM as :meth:`transform`, and those normalized values
        are projected directly instead of being recomputed.
        """
        values = self._fit(traces, labels, program_ids, label_names)
        assert self.pca is not None
        projected = self.pca.transform(values)
        if n_components is not None:
            projected = projected[:, :n_components]
        return projected

    def _fit(
        self,
        traces: np.ndarray,
        labels: np.ndarray,
        program_ids: np.ndarray,
        label_names: Sequence[str],
    ) -> np.ndarray:
        """Shared fitting body; returns the normalized training values."""
        if len(label_names) < 2:
            raise ValueError(
                "feature selection needs at least two classes "
                f"(got {list(label_names)!r})"
            )
        with _obs.span(
            "features.fit", n=len(traces), n_classes=len(label_names)
        ):
            traces = np.asarray(traces)  # replint: disable=REP009 -- shape/indexing view; every downstream sink (cwt.transform, point_values) pins its own dtype at entry
            self._n_samples = traces.shape[1]
            if self.config.use_cwt:
                # Shared cached operator: every pipeline fitted on the same
                # geometry reuses one set of precomputed response matrices.
                self._cwt = get_cwt(self._n_samples, self.config.cwt)
            stats = compute_class_stats(
                traces,
                labels,
                program_ids,
                label_names,
                self._cwt if self.config.use_cwt else None,
            )
            with _obs.span("kl.select", n_classes=len(label_names)):
                self.selector = DnvpSelector(
                    kl_threshold=self.config.kl_threshold,
                    top_k=self.config.top_k,
                    n_jobs=self.config.n_jobs,
                ).fit(stats)
            # The statistics are O(classes x programs) planes: free them
            # before the point-value GEMM, normalization and PCA.
            del stats
            self.points = self.selector.points
            self._point_gemm = None
            values = self._normalize(self._point_values(traces), fit=True)
            with _obs.span("pca.fit", n_points=len(self.points)):
                self.pca = PCA(n_components=self.config.n_components).fit(
                    values
                )
            return values

    def transform(
        self,
        traces: np.ndarray,
        n_components: Optional[int] = None,
        adapt: Optional[bool] = None,
    ) -> np.ndarray:
        """Map traces to classifier feature vectors.

        Args:
            traces: ``(n, n_samples)`` raw (reference-subtracted) traces.
            n_components: optionally truncate to fewer leading components
                (used by the paper's Fig. 5 sweep) without refitting.
            adapt: override batch adaptation for this call.  Batch
                normalization assumes the batch's class mixture resembles
                training; pass ``False`` for skewed batches (e.g. windows
                of a single instruction) or same-session captures.
        """
        if self.pca is None or self._n_samples is None:
            raise RuntimeError("pipeline is not fitted")
        traces = np.asarray(traces)  # replint: disable=REP009 -- shape validation view; point_values pins the dtype at its boundary
        if traces.shape[1] != self._n_samples:
            raise ValueError(
                f"expected {self._n_samples}-sample traces, "
                f"got {traces.shape[1]}"
            )
        with _obs.span("features.transform", n=len(traces)):
            values = self._point_values(traces)
            values = self._normalize(values, fit=False, adapt=adapt)
            projected = self.pca.transform(values)
            if n_components is not None:
                projected = projected[:, :n_components]
            return projected

    @property
    def n_points(self) -> int:
        """Unified DNVP feature set size (paper: 205 for group 1)."""
        return len(self.points)

    @property
    def n_features(self) -> int:
        """Output dimensionality after PCA."""
        if self.pca is None:
            raise RuntimeError("pipeline is not fitted")
        return self.pca.n_components_
