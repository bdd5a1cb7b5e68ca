"""Linear and quadratic discriminant analysis (LDA / QDA).

These are the paper's template classifiers (MATLAB ``fitcdiscr``):
Gaussian class-conditional densities with shared (LDA) or per-class (QDA)
covariance, maximum a-posteriori decision rule.  Covariances are
regularized by shrinkage towards a scaled identity so the classifiers stay
stable when the number of principal components approaches the per-class
trace count.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Classifier, check_Xy

__all__ = ["LDA", "QDA"]


def _shrink(cov: np.ndarray, shrinkage: float) -> np.ndarray:
    """Shrink a covariance towards ``mu * I`` (Ledoit-Wolf style target)."""
    p = cov.shape[0]
    mu = np.trace(cov) / p
    return (1.0 - shrinkage) * cov + shrinkage * mu * np.eye(p)


class LDA(Classifier):
    """Gaussian classifier with a shared covariance matrix.

    Args:
        shrinkage: covariance shrinkage in [0, 1).
        priors: class priors; default empirical.
    """

    def __init__(self, shrinkage: float = 1e-3, priors: Optional[np.ndarray] = None):
        self.shrinkage = shrinkage
        self.priors = priors

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LDA":
        X, y = check_Xy(X, y)
        self.classes_ = np.unique(y)
        n, p = X.shape
        means = []
        pooled = np.zeros((p, p))
        counts = []
        for cls in self.classes_:
            block = X[y == cls]
            mu = block.mean(axis=0)
            means.append(mu)
            centered = block - mu
            pooled += centered.T @ centered
            counts.append(len(block))
        self.means_ = np.array(means)
        dof = max(n - len(self.classes_), 1)
        cov = _shrink(pooled / dof, self.shrinkage)
        self._precision = np.linalg.pinv(cov)
        counts = np.array(counts, dtype=np.float64)
        self.priors_ = (
            np.asarray(self.priors, dtype=np.float64)
            if self.priors is not None
            else counts / counts.sum()
        )
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Per-class linear discriminant scores ``(n, n_classes)``."""
        X = check_Xy(X)
        # delta_k(x) = x' S^-1 mu_k - mu_k' S^-1 mu_k / 2 + log pi_k
        projections = X @ self._precision @ self.means_.T
        offsets = 0.5 * np.einsum(
            "kp,pq,kq->k", self.means_, self._precision, self.means_
        )
        return projections - offsets + np.log(self.priors_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.decision_function(X), axis=1)]

    def predict_log_proba(self, X: np.ndarray) -> np.ndarray:
        """Log posterior (up to shared constants), normalized."""
        scores = self.decision_function(X)
        scores = scores - scores.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(scores).sum(axis=1, keepdims=True))
        return scores - log_norm

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Posterior class probabilities."""
        return np.exp(self.predict_log_proba(X))


class QDA(Classifier):
    """Gaussian classifier with per-class covariance matrices.

    Args:
        regularization: covariance shrinkage in [0, 1).
        priors: class priors; default empirical.
    """

    def __init__(
        self, regularization: float = 1e-3, priors: Optional[np.ndarray] = None
    ):
        self.regularization = regularization
        self.priors = priors

    def fit(self, X: np.ndarray, y: np.ndarray) -> "QDA":
        X, y = check_Xy(X, y)
        self.classes_ = np.unique(y)
        means = []
        precisions = []
        logdets = []
        counts = []
        for cls in self.classes_:
            block = X[y == cls]
            mu = block.mean(axis=0)
            centered = block - mu
            cov = centered.T @ centered / max(len(block) - 1, 1)
            cov = _shrink(cov, self.regularization)
            sign, logdet = np.linalg.slogdet(cov)
            if sign <= 0:  # fall back to stronger regularization
                cov = _shrink(cov, 0.5)
                _, logdet = np.linalg.slogdet(cov)
            means.append(mu)
            precisions.append(np.linalg.pinv(cov))
            logdets.append(logdet)
            counts.append(len(block))
        self.means_ = np.array(means)
        self.precisions_ = np.array(precisions)
        self.logdets_ = np.array(logdets)
        counts = np.array(counts, dtype=np.float64)
        self.priors_ = (
            np.asarray(self.priors, dtype=np.float64)
            if self.priors is not None
            else counts / counts.sum()
        )
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Per-class quadratic discriminant scores ``(n, n_classes)``."""
        X = check_Xy(X)
        n = len(X)
        scores = np.empty((n, len(self.classes_)))
        for k in range(len(self.classes_)):
            diff = X - self.means_[k]
            maha = np.einsum("np,pq,nq->n", diff, self.precisions_[k], diff)
            scores[:, k] = (
                -0.5 * maha - 0.5 * self.logdets_[k] + np.log(self.priors_[k])
            )
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.decision_function(X), axis=1)]

    def predict_log_proba(self, X: np.ndarray) -> np.ndarray:
        """Normalized log posterior."""
        scores = self.decision_function(X)
        scores = scores - scores.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(scores).sum(axis=1, keepdims=True))
        return scores - log_norm

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Posterior class probabilities."""
        return np.exp(self.predict_log_proba(X))
