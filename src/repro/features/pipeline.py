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
from ..util.knobs import get_int
from .kl import WaveletStats
from .pca import PCA
from .selection import DnvpSelector, Point

__all__ = [
    "ClassImages",
    "FeatureConfig",
    "FeaturePipeline",
    "compute_class_stats",
]


def compute_class_stats(
    traces: np.ndarray,
    labels: np.ndarray,
    program_ids: np.ndarray,
    label_names: Sequence[str],
    cwt: Optional[CWT],
    block_size: int = 512,
    image_cache: Optional[Dict[str, "ClassImages"]] = None,
) -> Dict[str, WaveletStats]:
    """Per-class wavelet statistics (time-domain pseudo-images if no CWT).

    Args:
        image_cache: optional dict that receives the full per-class
            time-frequency images (with their row indices into
            ``traces``) so the caller can reuse them — e.g. to gather
            selected-point feature values without a second CWT pass.
    """
    labels = np.asarray(labels)
    program_ids = np.asarray(program_ids)
    stats: Dict[str, WaveletStats] = {}
    with _obs.span("kl.stats", n_classes=len(label_names)):
        for code, name in enumerate(label_names):
            rows = np.flatnonzero(labels == code)
            if len(rows) == 0:
                raise ValueError(f"class {name!r} has no traces")
            blocks = []
            for start in range(0, len(rows), block_size):
                chunk = np.asarray(traces)[rows[start:start + block_size]]  # replint: disable=REP009 -- row gather only; both sinks re-pin (cwt.transform casts to its real dtype, the else-branch pins float32)
                if cwt is not None:
                    blocks.append(cwt.transform(chunk))
                else:
                    blocks.append(
                        np.asarray(chunk, dtype=np.float32)[:, None, :]
                    )
            images = np.concatenate(blocks)
            stats[name] = WaveletStats.from_images(images, program_ids[rows])
            if image_cache is not None:
                image_cache[name] = ClassImages(rows=rows, images=images)
    return stats


@dataclass(frozen=True)
class ClassImages:
    """One class's full images plus their row positions in the trace set."""

    rows: np.ndarray
    images: np.ndarray


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
        block_size: CWT batch size during fitting (memory control).
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
    block_size: int = 512
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
        selector: the fitted :class:`DnvpSelector` (per-pair diagnostics).
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
    def _images(self, traces: np.ndarray) -> np.ndarray:
        """Full time-frequency images (or pseudo-images in time domain)."""
        if self.config.use_cwt:
            assert self._cwt is not None
            return self._cwt.transform(traces)
        return np.asarray(traces, dtype=np.float32)[:, None, :]

    def _point_values(
        self, traces: np.ndarray, staged: bool = False
    ) -> np.ndarray:
        """Unified DNVP feature values for raw traces.

        Inference-time calls (``staged=False``) are one matrix product
        against the selected points' folded CWT functionals plus a
        modulus, skipping all per-stage FFT/inverse machinery.  Fitting
        keeps the staged kernels (``staged=True``) so the normalization
        statistics and PCA basis are bit-identical to earlier releases.
        """
        if self.config.use_cwt:
            assert self._cwt is not None
            if staged:
                return self._cwt.transform_points(traces, self.points)
            return self._folded_point_values(traces)
        times = np.array([k for (_, k) in self.points])
        return np.asarray(traces, dtype=np.float64)[:, times]

    def _folded_points(self) -> np.ndarray:
        """The selected points as one real ``(n_samples, P or 2P)`` matrix.

        Stacks ``[Re K | Im K]`` (or just ``Re K`` without magnitude) of
        ``K = CWT.point_operator(points)``, in float64.  Built once per
        fitted point set and shared by :meth:`transform` and
        :meth:`repro.features.compiled.CompiledPipeline.build`.
        """
        if self._point_gemm is None:
            assert self._cwt is not None
            operator = self._cwt.point_operator(self.points)
            if self.config.cwt.magnitude:
                matrix = np.hstack([operator.real, operator.imag])
            else:
                matrix = operator.real
            self._point_gemm = np.ascontiguousarray(matrix)
        return self._point_gemm

    def _folded_point_values(self, traces: np.ndarray) -> np.ndarray:
        """Selected-point values via the precomputed linear operator.

        Inputs are quantized to the transform's working precision first
        (so the fold sees the same operand the staged path would) but
        the stacked ``[Re K | Im K]`` GEMM itself runs in float64: a
        float32 product is not row-deterministic across batch shapes
        (BLAS blocking), and downstream tests hold single-trace and
        batched transforms to ~1e-9 of each other.
        """
        matrix = self._folded_points()
        quantize_dtype = (
            np.float32
            if self.config.cwt.precision == "single"
            else np.float64
        )
        batch = np.asarray(traces, dtype=quantize_dtype)
        product = batch.astype(np.float64, copy=False) @ matrix
        if not self.config.cwt.magnitude:
            return product
        n_points = len(self.points)
        real = product[:, :n_points]
        imag = product[:, n_points:]
        return np.sqrt(real * real + imag * imag)

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
    def class_statistics(
        self,
        traces: np.ndarray,
        labels: np.ndarray,
        program_ids: np.ndarray,
        label_names: Sequence[str],
    ) -> Dict[str, WaveletStats]:
        """Per-class wavelet statistics (pass 1 of fitting)."""
        return compute_class_stats(
            traces,
            labels,
            program_ids,
            label_names,
            self._cwt if self.config.use_cwt else None,
            self.config.block_size,
        )

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

        Equivalent to ``fit(...)`` followed by ``transform(traces)`` up
        to float32 rounding of the wavelet magnitudes: the normalized
        point values computed while fitting PCA are projected directly
        instead of re-deriving them from the raw traces, so the
        training set never goes through the wavelet transform a second
        time.
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
            traces = np.asarray(traces)  # replint: disable=REP009 -- shape/indexing view; every downstream sink (cwt.transform*, float32 fallback) pins its own dtype at entry
            self._n_samples = traces.shape[1]
            if self.config.use_cwt:
                # Shared cached operator: every pipeline fitted on the same
                # geometry reuses one set of precomputed response matrices.
                self._cwt = get_cwt(self._n_samples, self.config.cwt)
            image_cache = {} if self._image_cache_fits(*traces.shape) else None
            stats = compute_class_stats(
                traces,
                labels,
                program_ids,
                label_names,
                self._cwt if self.config.use_cwt else None,
                self.config.block_size,
                image_cache=image_cache,
            )
            with _obs.span("kl.select", n_classes=len(label_names)):
                self.selector = DnvpSelector(
                    kl_threshold=self.config.kl_threshold,
                    top_k=self.config.top_k,
                    n_jobs=self.config.n_jobs,
                ).fit(stats)
            self.points = self.selector.points
            self._point_gemm = None
            if image_cache is not None:
                values = self._gather_point_values(image_cache, len(traces))
            else:
                values = self._point_values(traces, staged=True)
            values = self._normalize(values, fit=True)
            with _obs.span("pca.fit", n_points=len(self.points)):
                self.pca = PCA(n_components=self.config.n_components).fit(
                    values
                )
            return values

    def _image_cache_fits(self, n_traces: int, n_samples: int) -> bool:
        """Whether holding ``n_traces`` training images in memory fits.

        The statistics pass already materializes every class's images;
        holding on to them lets the selected-point values be gathered by
        fancy indexing instead of a second CWT pass over the training
        set.  Capped by ``REPRO_FIT_CACHE_MB`` (0 disables the cache).
        """
        if not self.config.use_cwt:
            return False
        budget_mb = get_int("REPRO_FIT_CACHE_MB")
        if budget_mb <= 0:
            return False
        n_scales = self.config.cwt.n_scales
        total = n_traces * n_scales * n_samples * 4
        return total <= budget_mb * (1 << 20)

    def _gather_point_values(
        self, image_cache: Dict[str, ClassImages], n_traces: int
    ) -> np.ndarray:
        """Selected-point values gathered from the cached class images."""
        scales = np.array([j for (j, _) in self.points])
        times = np.array([k for (_, k) in self.points])
        values = np.empty((n_traces, len(self.points)), dtype=np.float64)
        for cached in image_cache.values():
            values[cached.rows] = cached.images[:, scales, times]
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
        traces = np.asarray(traces)  # replint: disable=REP009 -- shape validation view; _point_values feeds cwt.transform_points, which pins the dtype at its boundary
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
