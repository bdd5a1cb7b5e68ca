"""One-vs-one ensemble with majority voting (paper §5.4, Eq. 2-3).

Wraps any binary-capable base classifier into a multiclass ensemble:
``K(K-1)/2`` binary classifiers vote, and the class with most votes wins
(ties broken by accumulated soft scores when the base classifier exposes
``decision_function`` or ``predict_proba``).

Fitting has a shared-sufficient-statistic fast path: when the base
estimator can assemble itself from per-class statistics
(:meth:`fit_from_stats` — LDA / QDA / naive Bayes), the per-class
means/covariances/variances are computed **once** and every pair
classifier is built from them instead of refitting on ``X[mask]`` per
pair.  Estimators without that capability (SVM) keep the per-pair fit,
optionally fanned over the ``repro.util.parallel`` pool.  Inference
accumulates all pair votes/scores through one ``(n_pairs, n)`` prediction
matrix reduced with ``np.add.at`` instead of per-pair Python bookkeeping.
The naive per-pair loops are the ``ovo_*`` test oracles.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import trace as _obs
from ..util.parallel import parallel_map
from .base import Classifier, check_Xy
from .suffstats import ClassStats

__all__ = ["OneVsOneClassifier"]


class _PairFitTask:
    """Picklable per-pair fit job for the worker pool.

    Work items are pair indices; each call clones the prototype and fits
    it on the pair's row subset.  Results are deterministic per item, so
    any worker count reproduces the serial ensemble.
    """

    def __init__(
        self,
        prototype: Classifier,
        X: np.ndarray,
        y: np.ndarray,
        classes: np.ndarray,
        pairs: Sequence[Tuple[int, int]],
    ) -> None:
        self.prototype = prototype
        self.X = X
        self.y = y
        self.classes = classes
        self.pairs = list(pairs)

    def __call__(self, pair_index: int) -> Classifier:
        a, b = self.pairs[pair_index]
        mask = (self.y == self.classes[a]) | (self.y == self.classes[b])
        clone = self.prototype.clone()
        return clone.fit(self.X[mask], self.y[mask])


class OneVsOneClassifier(Classifier):
    """Generic one-vs-one majority-voting ensemble.

    Args:
        base_estimator: unfitted binary classifier prototype; it is
            cloned per class pair.
        n_jobs: worker count for per-pair fitting when the base
            estimator has no shared-statistic path (``None`` →
            ``REPRO_N_JOBS`` → serial); results are identical for any
            value.
    """

    def __init__(self, base_estimator: Classifier, n_jobs: Optional[int] = None):
        self.base_estimator = base_estimator
        self.n_jobs = n_jobs

    def _class_pairs(self) -> List[Tuple[int, int]]:
        return list(itertools.combinations(range(len(self.classes_)), 2))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "OneVsOneClassifier":
        """Fit all pair classifiers.

        Gaussian-template estimators (those with ``fit_from_stats``) are
        assembled from shared per-class sufficient statistics
        (bit-identical templates for LDA/QDA vs per-pair refits, ~1e-15
        for naive Bayes' smoothing term); any other estimator is refit
        per pair — optionally on the worker pool.
        """
        X, y = check_Xy(X, y)
        self.classes_ = np.unique(y)
        pairs = self._class_pairs()
        self.estimators_: Dict[Tuple[int, int], Classifier] = {}
        with _obs.span("train.ovo", n_pairs=len(pairs)):
            if hasattr(self.base_estimator, "fit_from_stats"):
                stats = ClassStats.from_Xy(X, y)
                shared = (
                    self.base_estimator.prepare_stats_state(stats)
                    if hasattr(self.base_estimator, "prepare_stats_state")
                    else None
                )
                for a, b in pairs:
                    clone = self.base_estimator.clone()
                    clone.fit_from_stats(stats, (a, b), shared)
                    self.estimators_[(a, b)] = clone
            else:
                task = _PairFitTask(
                    self.base_estimator, X, y, self.classes_, pairs
                )
                fitted = parallel_map(
                    task, range(len(pairs)), n_jobs=self.n_jobs
                )
                self.estimators_ = dict(zip(pairs, fitted))
            _obs.counter("ovo.pairs_fit").inc(len(pairs))
        return self

    def _pair_soft_score(
        self, estimator: Classifier, X: np.ndarray, class_a: int
    ) -> Optional[np.ndarray]:
        """Signed score favouring ``class_a`` when positive, if available."""
        if hasattr(estimator, "predict_proba"):
            proba = estimator.predict_proba(X)
            column = list(estimator.classes_).index(class_a)
            return proba[:, column] - 0.5
        if hasattr(estimator, "decision_function"):
            decision = estimator.decision_function(X)
            if decision.ndim == 1:
                sign = 1.0 if estimator.classes_[0] == class_a else -1.0
                return sign * decision
        return None

    def _pair_predictions(
        self, X: np.ndarray, want_soft: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]:
        """All pair classifiers evaluated into dense matrices.

        Returns ``(sides_a, sides_b, winners, soft, has_soft)`` where
        ``winners`` is the ``(n_pairs, n)`` matrix of winning class
        indices and ``soft`` the matching soft-score stack (rows of pairs
        without a soft score stay zero, flagged by ``has_soft``).
        """
        pairs = list(self.estimators_)
        n = len(X)
        sides_a = np.array([a for a, _ in pairs], dtype=np.int64)
        sides_b = np.array([b for _, b in pairs], dtype=np.int64)
        winners = np.empty((len(pairs), n), dtype=np.int64)
        soft = np.zeros((len(pairs), n)) if want_soft else None
        has_soft = np.zeros(len(pairs), dtype=bool)
        for row, (a, b) in enumerate(pairs):
            estimator = self.estimators_[(a, b)]
            pred = estimator.predict(X)
            winners[row] = np.where(pred == self.classes_[a], a, b)
            if want_soft:
                score = self._pair_soft_score(estimator, X, self.classes_[a])
                if score is not None:
                    soft[row] = score
                    has_soft[row] = True
        return sides_a, sides_b, winners, soft, has_soft

    @staticmethod
    def _count_votes(winners: np.ndarray, n_classes: int) -> np.ndarray:
        """Reduce a ``(n_pairs, n)`` winner matrix to ``(n, n_classes)``."""
        n_pairs, n = winners.shape
        votes = np.zeros((n, n_classes))
        rows = np.broadcast_to(np.arange(n), (n_pairs, n))
        np.add.at(votes, (rows.ravel(), winners.ravel()), 1.0)
        return votes

    def vote_matrix(self, X: np.ndarray) -> np.ndarray:
        """Raw vote counts, shape ``(n, n_classes)`` (Eq. 3's sum)."""
        X = check_Xy(X)
        _, _, winners, _, _ = self._pair_predictions(X, want_soft=False)
        return self._count_votes(winners, len(self.classes_))

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = check_Xy(X)
        sides_a, sides_b, winners, soft, has_soft = self._pair_predictions(
            X, want_soft=True
        )
        votes = self._count_votes(winners, len(self.classes_))
        scores_t = np.zeros((len(self.classes_), len(X)))
        if has_soft.any():
            np.add.at(scores_t, sides_a[has_soft], soft[has_soft])
            np.add.at(scores_t, sides_b[has_soft], -soft[has_soft])
        ranking = votes + 1e-9 * np.tanh(scores_t.T)
        return self.classes_[np.argmax(ranking, axis=1)]
