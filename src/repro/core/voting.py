"""Majority voting with per-pair feature sets (paper §5.4).

The unified DNVP + PCA space is a compromise over all class pairs; the
majority-voting method instead gives **each binary classifier its own
best feature vector** — the DNVP points of that specific pair, reduced by
a small per-pair PCA — and combines the ``K(K-1)/2`` votes (Eq. 2-3).
The payoff is accuracy at a very small number of variables, which the
paper argues is what makes high-clock-rate targets feasible (a 99 % SR at
10 variables needs only a 5 GS/s scope at 1 GHz instead of 20 GS/s).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..dsp.cwt import CWT, get_cwt
from ..features.pca import PCA
from ..features.pipeline import (
    FeatureConfig,
    compute_class_stats,
    folded_point_matrix,
    point_values,
)
from ..features.selection import select_all_pairs
from ..ml.base import Classifier
from ..ml.discriminant import QDA
from ..ml.ovo import pairwise_vote
from ..power.dataset import TraceSet

__all__ = ["PairwiseVotingClassifier"]


@dataclass
class _PairModel:
    columns: np.ndarray  # indices into the unified point-value matrix
    pca: PCA
    classifier: Classifier
    code_a: int
    code_b: int


class PairwiseVotingClassifier:
    """One-vs-one majority voting with per-pair DNVP features.

    Args:
        feature_config: shared preprocessing settings; ``top_k`` is
            overridden by ``points_per_pair``.
        classifier_factory: binary classifier constructor.
        n_variables: per-pair feature vector length after PCA (the
            x-axis of the paper's Fig. 6).
        points_per_pair: DNVP points selected per pair before PCA.
    """

    def __init__(
        self,
        feature_config: Optional[FeatureConfig] = None,
        classifier_factory: Callable[[], Classifier] = QDA,
        n_variables: int = 3,
        points_per_pair: Optional[int] = None,
    ) -> None:
        self.feature_config = (
            feature_config if feature_config is not None else FeatureConfig()
        )
        self.classifier_factory = classifier_factory
        self.n_variables = n_variables
        self.points_per_pair = (
            points_per_pair
            if points_per_pair is not None
            else max(10, n_variables)
        )
        self._pairs: List[_PairModel] = []
        self._points: List[Tuple[int, int]] = []
        self._cwt: Optional[CWT] = None
        self._point_matrix: Optional[np.ndarray] = None
        self._feature_mean = None
        self._feature_std = None
        self.label_names: Tuple[str, ...] = ()

    def _point_values(self, traces: np.ndarray) -> np.ndarray:
        return point_values(
            traces, self._points, self._cwt, self._point_matrix
        )

    def _normalize(self, values: np.ndarray, fit: bool) -> np.ndarray:
        """Column normalization of the unified DNVP matrix (CSA: batch)."""
        mode = self.feature_config.normalize
        if mode == "none":
            return values
        if fit:
            self._feature_mean = values.mean(axis=0)
            std = values.std(axis=0)
            self._feature_std = np.where(std == 0, 1.0, std)
        adapt = (
            mode in ("batch", "per_trace")
            and not fit
            and len(values) >= self.feature_config.min_batch_for_adaptation
        )
        if adapt:
            mean = values.mean(axis=0)
            std = values.std(axis=0)
            std = np.where(std == 0, 1.0, std)
            return (values - mean) / std
        return (values - self._feature_mean) / self._feature_std

    def fit(self, trace_set: TraceSet) -> "PairwiseVotingClassifier":
        """Select per-pair points and train all binary classifiers."""
        cfg = self.feature_config
        self.label_names = trace_set.label_names
        n_samples = trace_set.n_samples
        self._cwt = get_cwt(n_samples, cfg.cwt) if cfg.use_cwt else None
        # Select each pair's own points, then build one unified gather
        # list; the class statistics die with the selection call.
        pair_codes = itertools.combinations(range(len(self.label_names)), 2)
        selections = select_all_pairs(
            compute_class_stats(
                trace_set.traces,
                trace_set.labels,
                trace_set.program_ids,
                trace_set.label_names,
                self._cwt,
            ),
            kl_threshold=cfg.kl_threshold,
            top_k=self.points_per_pair,
            names=list(trace_set.label_names),
            n_jobs=cfg.n_jobs,
        )
        pair_points: Dict[Tuple[int, int], List[Tuple[int, int]]] = {
            codes: selection.points
            for codes, selection in zip(pair_codes, selections)
        }
        del selections
        unified = sorted({p for pts in pair_points.values() for p in pts})
        self._points = unified
        if self._cwt is not None:
            self._point_matrix = folded_point_matrix(self._cwt, unified)
        column_of = {point: i for i, point in enumerate(unified)}

        values = self._normalize(self._point_values(trace_set.traces), fit=True)
        labels = trace_set.labels
        self._pairs = []
        for (a, b), points in pair_points.items():
            columns = np.array([column_of[p] for p in points])
            mask = (labels == a) | (labels == b)
            pair_values = values[mask][:, columns]
            pca = PCA(n_components=min(self.n_variables, len(columns)))
            projected = pca.fit_transform(pair_values)
            classifier = self.classifier_factory()
            classifier.fit(projected, labels[mask])
            self._pairs.append(
                _PairModel(
                    columns=columns,
                    pca=pca,
                    classifier=classifier,
                    code_a=a,
                    code_b=b,
                )
            )
        return self

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Majority vote over all pairwise classifiers (Eq. 3)."""
        if not self._pairs:
            raise RuntimeError("classifier is not fitted")
        values = self._normalize(self._point_values(np.asarray(windows)), fit=False)
        a_wins = np.empty((len(self._pairs), len(values)), dtype=bool)
        margins = np.zeros(a_wins.shape)
        for row, pair in enumerate(self._pairs):
            projected = pair.pca.transform(values[:, pair.columns])
            a_wins[row] = pair.classifier.predict(projected) == pair.code_a
            if hasattr(pair.classifier, "predict_proba"):
                proba = pair.classifier.predict_proba(projected)
                column = list(pair.classifier.classes_).index(pair.code_a)
                margins[row] = proba[:, column] - 0.5
        return pairwise_vote(
            [(pair.code_a, pair.code_b) for pair in self._pairs],
            a_wins,
            margins,
            len(self.label_names),
        )

    def score(self, trace_set: TraceSet) -> float:
        """Successful recognition rate on a labelled trace set."""
        return float(np.mean(self.predict(trace_set.traces) == trace_set.labels))

    @property
    def n_binary_classifiers(self) -> int:
        """Number of trained pairwise machines, ``K(K-1)/2``."""
        return len(self._pairs)
