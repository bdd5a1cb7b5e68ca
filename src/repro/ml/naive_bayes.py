"""Gaussian naive Bayes (the paper's ``fitcnb`` equivalent)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Classifier, check_Xy

__all__ = ["GaussianNB"]


class GaussianNB(Classifier):
    """Naive Bayes with per-class, per-feature Gaussian likelihoods.

    Args:
        var_smoothing: fraction of the largest feature variance added to
            every variance (numerical stability, as in scikit-learn).
        priors: class priors; default empirical.
    """

    def __init__(self, var_smoothing: float = 1e-9, priors: Optional[np.ndarray] = None):
        self.var_smoothing = var_smoothing
        self.priors = priors

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianNB":
        X, y = check_Xy(X, y)
        self.classes_ = np.unique(y)
        means = []
        variances = []
        counts = []
        for cls in self.classes_:
            block = X[y == cls]
            means.append(block.mean(axis=0))
            variances.append(block.var(axis=0))
            counts.append(len(block))
        self.means_ = np.array(means)
        self.vars_ = np.array(variances)
        self.vars_ += self.var_smoothing * float(X.var(axis=0).max() + 1e-12)
        self.vars_ = np.maximum(self.vars_, 1e-12)
        counts = np.array(counts, dtype=np.float64)
        self.priors_ = (
            np.asarray(self.priors, dtype=np.float64)
            if self.priors is not None
            else counts / counts.sum()
        )
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        X = check_Xy(X)
        n = len(X)
        out = np.empty((n, len(self.classes_)))
        for k in range(len(self.classes_)):
            diff = X - self.means_[k]
            log_pdf = -0.5 * (
                np.log(2.0 * np.pi * self.vars_[k]) + diff**2 / self.vars_[k]
            )
            out[:, k] = log_pdf.sum(axis=1) + np.log(self.priors_[k])
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self._joint_log_likelihood(X), axis=1)]

    def predict_log_proba(self, X: np.ndarray) -> np.ndarray:
        """Normalized log posterior."""
        joint = self._joint_log_likelihood(X)
        joint = joint - joint.max(axis=1, keepdims=True)
        return joint - np.log(np.exp(joint).sum(axis=1, keepdims=True))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Posterior class probabilities."""
        return np.exp(self.predict_log_proba(X))
