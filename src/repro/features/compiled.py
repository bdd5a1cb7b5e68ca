"""Compiled per-trace inference: the whole classify path as GEMMs.

The serving-relevant classify path only ever reads the ~top-5-per-pair
DNVP-selected (scale, time) CWT points, yet the staged pipeline pays
generic per-stage machinery per batch: a forward FFT, per-scale inverse
kernels, a normalization pass, a PCA projection and a per-class Python
loop inside the discriminant.  Every one of those stages is affine (or,
for the CWT magnitude, the modulus of a *linear* map), so a fitted
pipeline + trained discriminant flattens into a handful of precomputed
matrices at build time:

1. **Feature fold** — the CWT at fixed points is a complex linear
   operator on the trace (:meth:`repro.dsp.cwt.CWT.point_operator`), so
   selected-point extraction is one real GEMM
   against the stacked ``[Re K | Im K]`` matrix followed by a modulus.
2. **Projection fold** — the normalizer's affine terms and the PCA basis
   compose into a single ``(n_points, n_components)`` matrix plus an
   offset: ``Y = V @ P + b`` with ``P = (C/σ)ᵀ`` and
   ``b = -(μ/σ + μ_pca) @ Cᵀ``.  Batch-adaptive normalization (§5.5
   CSA) re-derives ``P, b`` from the evaluation batch's own first two
   moments — still two tiny elementwise folds, no extra GEMM.
3. **Discriminant fold** — LDA is linear (``S = Y @ W + c``), Gaussian
   naive Bayes is diagonal-quadratic (``S = Y² @ Wq + Y @ Wl + c``) and
   QDA factors each precision as ``P_k = L_k L_kᵀ`` so all class
   Mahalanobis terms evaluate through one stacked ``(p, K·p)`` GEMM.

A batch therefore classifies as two or three GEMMs plus an argmax, with
no per-trace (or per-class) Python dispatch.  The artifact ships a
float32 fast path (default) and a float64 reference twin built the same
way — the parity suite in ``tests/features/test_compiled.py`` holds the
f64 twin to ≤1e-10 of the staged double-precision pipeline and the f32
path to ≤1e-4 of the staged default.  Instances hold nothing but plain
arrays and metadata, so they pickle directly into model artifacts
(:meth:`repro.core.hierarchy.SideChannelDisassembler.save`) and a
future serving layer can load them without the training stack.

The dtype policy above is machine-checked: ``REP009`` in
:mod:`repro.analysis` walks the import/call closure of this module and
:mod:`repro.dsp.cwt` and flags any trace-array conversion on that path
that neither pins ``dtype=`` nor sits next to a float64 accumulation —
a silent downcast upstream of the GEMMs is exactly the drift the parity
suite cannot localize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..ml.discriminant import LDA, QDA
from ..ml.naive_bayes import GaussianNB
from ..obs import trace as _obs
from .pipeline import FeaturePipeline

__all__ = ["CompileError", "CompiledPipeline"]


class CompileError(RuntimeError):
    """The pipeline/classifier combination cannot be compiled.

    Raised for classifiers without a closed discriminant form (SVM,
    k-NN) and for unfitted inputs.  Callers that
    compile opportunistically catch this and keep the staged path.
    """


def _softmax_scores(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of discriminant scores, in float64."""
    scores = np.asarray(scores, dtype=np.float64)
    scores = scores - scores.max(axis=1, keepdims=True)
    proba = np.exp(scores)
    proba /= proba.sum(axis=1, keepdims=True, dtype=np.float64)
    return proba


@dataclass
class _LinearHead:
    """LDA: per-class scores are one GEMM. ``weights`` is (p, K)."""

    weights: np.ndarray
    bias: np.ndarray

    def scores(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights + self.bias

    def astype(self, dtype) -> "_LinearHead":
        return _LinearHead(
            self.weights.astype(dtype), self.bias.astype(dtype)
        )


@dataclass
class _DiagonalQuadHead:
    """Gaussian naive Bayes: diagonal quadratic, two GEMMs."""

    quad: np.ndarray  # (p, K): -1 / (2 v_k)
    linear: np.ndarray  # (p, K): m_k / v_k
    bias: np.ndarray  # (K,)

    def scores(self, features: np.ndarray) -> np.ndarray:
        return (
            (features * features) @ self.quad
            + features @ self.linear
            + self.bias
        )

    def astype(self, dtype) -> "_DiagonalQuadHead":
        return _DiagonalQuadHead(
            self.quad.astype(dtype),
            self.linear.astype(dtype),
            self.bias.astype(dtype),
        )


@dataclass
class _QuadHead:
    """QDA: stacked precision factors, one (p, K·p) GEMM + square-sum.

    ``factors`` stacks per-class ``L_k`` with ``P_k = L_k L_kᵀ``
    column-blocks, so ``‖Y @ L_k‖²`` rows recover every class's
    Mahalanobis term from a single product.
    """

    factors: np.ndarray  # (p, K*p)
    linear: np.ndarray  # (p, K): P_k m_k
    bias: np.ndarray  # (K,)

    def scores(self, features: np.ndarray) -> np.ndarray:
        n, p = features.shape
        n_classes = self.linear.shape[1]
        rotated = (features @ self.factors).reshape(n, n_classes, p)
        maha = np.einsum("nkp,nkp->nk", rotated, rotated)
        return -0.5 * maha + features @ self.linear + self.bias

    def astype(self, dtype) -> "_QuadHead":
        return _QuadHead(
            self.factors.astype(dtype),
            self.linear.astype(dtype),
            self.bias.astype(dtype),
        )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CompileError(message)


def _precision_factor(precision: np.ndarray) -> np.ndarray:
    """``L`` with ``P = L Lᵀ`` for a symmetric PSD precision matrix.

    Eigen-based rather than Cholesky: the pseudo-inverted, shrunk
    covariances are PSD but may be numerically semi-definite, and
    ``eigh`` handles that without jitter.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(precision)
    return eigenvectors * np.sqrt(np.maximum(eigenvalues, 0.0))[None, :]


def _build_head(classifier):
    """Fold a fitted discriminant classifier into its GEMM head."""
    if not isinstance(classifier, (LDA, QDA, GaussianNB)):
        raise CompileError(
            f"no discriminant fold for {type(classifier).__name__}; "
            "supported: LDA, QDA, GaussianNB"
        )
    classes = getattr(classifier, "classes_", None)
    _require(classes is not None, "classifier is not fitted")
    log_priors = np.log(np.asarray(classifier.priors_, dtype=np.float64))
    means = np.asarray(classifier.means_, dtype=np.float64)
    if isinstance(classifier, QDA):
        n_classes, p = means.shape
        factors = np.empty((p, n_classes * p))
        linear = np.empty((p, n_classes))
        bias = np.empty(n_classes)
        for k in range(n_classes):
            precision = np.asarray(
                classifier.precisions_[k], dtype=np.float64
            )
            factors[:, k * p:(k + 1) * p] = _precision_factor(precision)
            linear[:, k] = precision @ means[k]
            bias[k] = (
                -0.5 * means[k] @ precision @ means[k]
                - 0.5 * float(classifier.logdets_[k])
                + log_priors[k]
            )
        return "QDA", _QuadHead(factors, linear, bias)
    if isinstance(classifier, LDA):
        precision = np.asarray(classifier._precision, dtype=np.float64)
        weights = precision @ means.T
        bias = (
            -0.5 * np.einsum("kp,pq,kq->k", means, precision, means)
            + log_priors
        )
        return "LDA", _LinearHead(weights, bias)
    if isinstance(classifier, GaussianNB):
        variances = np.asarray(classifier.vars_, dtype=np.float64)
        quad = (-0.5 / variances).T
        linear = (means / variances).T
        bias = (
            -0.5 * (np.log(2.0 * np.pi * variances) + means**2 / variances)
            .sum(axis=1, dtype=np.float64)
            + log_priors
        )
        return "GNB", _DiagonalQuadHead(quad, linear, bias)
    raise CompileError(f"unhandled classifier {type(classifier).__name__}")


class CompiledPipeline:
    """A fitted pipeline + discriminant flattened into precomputed GEMMs.

    Build one with :meth:`build`; never constructed by hand.  The object
    owns only plain numpy arrays plus a ``meta`` dict, so it pickles
    into model artifacts directly and is safe to share read-only across
    threads.

    Attributes:
        meta: build provenance — package version, dtype, stage shapes,
            classifier kind, normalization mode.
        classes_: classifier class codes, argmax order.
        label_names: optional class-key names aligned with ``classes_``.
    """

    def __init__(
        self,
        *,
        meta: dict,
        classes: np.ndarray,
        label_names: Optional[Tuple[str, ...]],
        dtype: np.dtype,
        point_matrix: Optional[np.ndarray],
        times: Optional[np.ndarray],
        magnitude: bool,
        norm_mode: str,
        min_batch: int,
        projection: np.ndarray,
        offset: np.ndarray,
        components: np.ndarray,
        pca_mean: np.ndarray,
        train_mean: np.ndarray,
        train_std: np.ndarray,
        head,
        kind: str,
    ) -> None:
        self.meta = meta
        self.classes_ = classes
        self.label_names = label_names
        self.dtype = np.dtype(dtype)
        self._point_matrix = point_matrix  # (n_samples, P or 2P) or None
        self._times = times  # time gather for use_cwt=False
        self._magnitude = magnitude
        self._norm_mode = norm_mode
        self._min_batch = min_batch
        self._projection = projection  # (P, k) train-stats fold
        self._offset = offset  # (k,)
        self._components = components  # (k, P) for batch-adaptive refold
        self._pca_mean = pca_mean
        self._train_mean = train_mean
        self._train_std = train_std
        self._head = head
        self.kind = kind

    # -- construction --------------------------------------------------------
    @classmethod
    def build(
        cls,
        pipeline: FeaturePipeline,
        classifier,
        label_names: Optional[Sequence[str]] = None,
        dtype="float32",
    ) -> "CompiledPipeline":
        """Fold a fitted pipeline and classifier into one artifact.

        Args:
            pipeline: fitted :class:`FeaturePipeline`.
            classifier: fitted LDA / QDA / GaussianNB template.
            label_names: class-key names aligned with the classifier's
                integer codes (``LevelModel.label_names``).
            dtype: ``"float32"`` (fast path) or ``"float64"`` (reference
                twin); all folded matrices are stored in this precision.

        Raises:
            CompileError: unfitted inputs or an unsupported classifier.
        """
        dtype = np.dtype(dtype)
        _require(
            dtype in (np.dtype(np.float32), np.dtype(np.float64)),
            f"unsupported dtype {dtype}",
        )
        _require(
            pipeline.pca is not None and pipeline._n_samples is not None,
            "pipeline is not fitted",
        )
        _require(len(pipeline.points) > 0, "pipeline selected no points")
        config = pipeline.config
        n_points = len(pipeline.points)
        with _obs.span(
            "compiled.build", n_points=n_points, dtype=str(dtype)
        ):
            magnitude = bool(config.use_cwt and config.cwt.magnitude)
            times = None
            point_matrix = None
            if config.use_cwt:
                point_matrix = pipeline._folded_points()
            else:
                times = np.array(
                    [k for (_, k) in pipeline.points], dtype=np.intp
                )

            # Normalization affine terms (identity for mode "none").
            if config.normalize == "none":
                train_mean = np.zeros(n_points)
                train_std = np.ones(n_points)
            else:
                _require(
                    pipeline._feature_mean is not None
                    and pipeline._feature_std is not None,
                    "pipeline normalization statistics missing",
                )
                train_mean = np.asarray(
                    pipeline._feature_mean, dtype=np.float64
                )
                train_std = np.asarray(
                    pipeline._feature_std, dtype=np.float64
                )

            # PCA basis with whitening folded in, then the affine fold.
            components = np.asarray(
                pipeline.pca.components_, dtype=np.float64
            )
            if pipeline.pca.whiten:
                scale = np.sqrt(
                    np.maximum(pipeline.pca.explained_variance_, 1e-12)
                )
                components = components / scale[:, None]
            pca_mean = np.asarray(pipeline.pca.mean_, dtype=np.float64)
            projection = (components / train_std[None, :]).T
            offset = -(train_mean / train_std + pca_mean) @ components.T

            kind, head = _build_head(classifier)

            from .. import __version__

            meta = {
                "version": __version__,
                "dtype": str(dtype),
                "classifier": kind,
                "n_samples": int(pipeline._n_samples),
                "n_points": n_points,
                "n_components": int(components.shape[0]),
                "n_classes": int(len(classifier.classes_)),
                "normalize": config.normalize,
                "use_cwt": bool(config.use_cwt),
                "magnitude": magnitude,
            }
            def cast(array):
                return None if array is None else array.astype(dtype)

            return cls(
                meta=meta,
                classes=np.asarray(classifier.classes_).copy(),
                label_names=(
                    tuple(label_names) if label_names is not None else None
                ),
                dtype=dtype,
                point_matrix=cast(point_matrix),
                times=times,
                magnitude=magnitude,
                norm_mode=config.normalize,
                min_batch=int(config.min_batch_for_adaptation),
                projection=projection.astype(dtype),
                offset=offset.astype(dtype),
                components=components.astype(dtype),
                pca_mean=pca_mean.astype(dtype),
                train_mean=train_mean.astype(dtype),
                train_std=train_std.astype(dtype),
                head=head.astype(dtype),
                kind=kind,
            )

    # -- inference -----------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Selected DNVP point count folded into the operator."""
        return int(self.meta["n_points"])

    def _point_values(self, traces: np.ndarray) -> np.ndarray:
        """Selected-point feature values: one GEMM (+ modulus)."""
        batch = np.atleast_2d(np.asarray(traces, dtype=self.dtype))
        if batch.shape[1] != self.meta["n_samples"]:
            raise ValueError(
                f"expected {self.meta['n_samples']}-sample traces, "
                f"got {batch.shape[1]}"
            )
        if self._times is not None:
            return batch[:, self._times]
        product = batch @ self._point_matrix
        if not self._magnitude:
            return product
        n_points = self.meta["n_points"]
        real = product[:, :n_points]
        imag = product[:, n_points:]
        return np.sqrt(real * real + imag * imag)

    def _project(
        self, values: np.ndarray, adapt: Optional[bool]
    ) -> np.ndarray:
        """Normalize + PCA-project via the folded affine map."""
        if adapt is None:
            adapt = self._norm_mode in ("batch", "per_trace")
        adapt = (
            adapt
            and self._norm_mode != "none"
            and len(values) >= self._min_batch
        )
        if not adapt:
            return values @ self._projection + self._offset
        # Batch-adaptive (CSA) refold: same algebra, batch moments.
        mean = values.mean(axis=0, dtype=np.float64)
        std = values.std(axis=0, dtype=np.float64)
        std = np.where(std == 0, 1.0, std).astype(self.dtype)
        mean = mean.astype(self.dtype)
        projection = (self._components / std[None, :]).T
        offset = -(mean / std + self._pca_mean) @ self._components.T
        return values @ projection + offset

    def transform(
        self, traces: np.ndarray, adapt: Optional[bool] = None
    ) -> np.ndarray:
        """Classifier-ready features for raw traces (parity surface).

        Semantics match :meth:`FeaturePipeline.transform`, including the
        batch-adaptation gate; arithmetic runs in the artifact dtype.
        """
        return self._project(self._point_values(traces), adapt)

    def decision_scores(
        self, traces: np.ndarray, adapt: Optional[bool] = None
    ) -> np.ndarray:
        """Per-class discriminant scores ``(n, n_classes)``.

        Equal (up to fold precision) to the staged classifier's
        ``decision_function`` for LDA/QDA and to the joint log
        likelihood for GaussianNB.
        """
        with _obs.span("compiled.classify", n=int(np.atleast_2d(
            np.asarray(traces)  # replint: disable=REP009 -- shape probe only; values enter the GEMM via transform(), which pins the dtype
        ).shape[0])):
            return self._head.scores(self.transform(traces, adapt=adapt))

    def predict(
        self, traces: np.ndarray, adapt: Optional[bool] = None
    ) -> np.ndarray:
        """Predicted integer class codes for raw traces."""
        scores = self.decision_scores(traces, adapt=adapt)
        return self.classes_[np.argmax(scores, axis=1)]

    def predict_with_confidence(
        self, traces: np.ndarray, adapt: Optional[bool] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Codes plus softmax posterior of the winning class."""
        scores = self.decision_scores(traces, adapt=adapt)
        columns = np.argmax(scores, axis=1)
        proba = _softmax_scores(scores)
        return (
            self.classes_[columns],
            proba[np.arange(len(columns)), columns],
        )
