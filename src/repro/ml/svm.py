"""Support vector machine with SMO solver (LIBSVM-style, from scratch).

The paper trains RBF-kernel SVMs through LIBSVM with the penalty ``C`` and
kernel width ``gamma`` grid-searched under 3-fold cross-validation (§5.2).
This module implements the same dual problem

    min 0.5 a' Q a - e' a   s.t.  y' a = 0,  0 <= a <= C

with first-order working-set selection (maximal violating pair), the
standard analytic two-variable update and the usual rho (bias) recovery.
Multiclass problems are handled one-vs-one with vote + score tie-breaking
(:func:`repro.ml.ovo.pairwise_vote`), exactly like LIBSVM.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..util.parallel import parallel_map
from .base import Classifier, check_Xy
from .ovo import pairwise_vote

__all__ = ["SVC", "linear_kernel", "rbf_kernel"]


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Gaussian kernel matrix ``exp(-gamma * ||a - b||^2)``."""
    a2 = np.einsum("ij,ij->i", A, A)[:, None]
    b2 = np.einsum("ij,ij->i", B, B)[None, :]
    d2 = np.maximum(a2 + b2 - 2.0 * A @ B.T, 0.0)
    return np.exp(-gamma * d2)


def linear_kernel(A: np.ndarray, B: np.ndarray, gamma: float = 0.0) -> np.ndarray:
    """Plain inner-product kernel (gamma ignored)."""
    return A @ B.T


_KERNELS = {"rbf": rbf_kernel, "linear": linear_kernel}


class _BinarySVM:
    """SMO solver for one two-class subproblem (labels +1/-1)."""

    def __init__(self, C: float, kernel: str, gamma: float, tol: float,
                 max_iter: int):
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.tol = tol
        self.max_iter = max_iter

    def fit(self, X: np.ndarray, y_pm: np.ndarray) -> "_BinarySVM":
        n = len(X)
        C = self.C
        kernel_fn = _KERNELS[self.kernel]
        K = kernel_fn(X, X, self.gamma)
        Q = (y_pm[:, None] * y_pm[None, :]) * K
        alpha = np.zeros(n)
        G = -np.ones(n)  # gradient of the dual objective

        for _ in range(self.max_iter):
            yG = -y_pm * G
            up = ((alpha < C - 1e-12) & (y_pm > 0)) | ((alpha > 1e-12) & (y_pm < 0))
            low = ((alpha < C - 1e-12) & (y_pm < 0)) | ((alpha > 1e-12) & (y_pm > 0))
            if not up.any() or not low.any():
                break
            i = int(np.flatnonzero(up)[np.argmax(yG[up])])
            j = int(np.flatnonzero(low)[np.argmin(yG[low])])
            if yG[i] - yG[j] < self.tol:
                break
            old_i, old_j = alpha[i], alpha[j]
            if y_pm[i] != y_pm[j]:
                quad = Q[i, i] + Q[j, j] + 2.0 * Q[i, j]
                quad = max(quad, 1e-12)
                delta = (-G[i] - G[j]) / quad
                diff = alpha[i] - alpha[j]
                alpha[i] += delta
                alpha[j] += delta
                if diff > 0 and alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = diff
                elif diff <= 0 and alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = -diff
                if diff > 0 and alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = C - diff
                elif diff <= 0 and alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = C + diff
            else:
                quad = Q[i, i] + Q[j, j] - 2.0 * Q[i, j]
                quad = max(quad, 1e-12)
                delta = (G[i] - G[j]) / quad
                total = alpha[i] + alpha[j]
                alpha[i] -= delta
                alpha[j] += delta
                if total > C and alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = total - C
                elif total <= C and alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = total
                if total > C and alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = total - C
                elif total <= C and alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = total
            G += Q[:, i] * (alpha[i] - old_i) + Q[:, j] * (alpha[j] - old_j)

        self.support_mask_ = alpha > 1e-8
        self.support_vectors_ = X[self.support_mask_]
        self.dual_coef_ = (alpha * y_pm)[self.support_mask_]
        free = (alpha > 1e-8) & (alpha < C - 1e-8)
        yG = -y_pm * G
        if free.any():
            self.rho_ = float(np.mean(yG[free]))
        else:
            up = ((alpha < C - 1e-12) & (y_pm > 0)) | ((alpha > 1e-12) & (y_pm < 0))
            low = ((alpha < C - 1e-12) & (y_pm < 0)) | ((alpha > 1e-12) & (y_pm > 0))
            hi = yG[up].max() if up.any() else 0.0
            lo = yG[low].min() if low.any() else 0.0
            self.rho_ = float((hi + lo) / 2.0)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        kernel_fn = _KERNELS[self.kernel]
        if len(self.support_vectors_) == 0:
            return np.full(len(X), self.rho_)
        K = kernel_fn(X, self.support_vectors_, self.gamma)
        return K @ self.dual_coef_ + self.rho_


class _SvmPairFitTask:
    """Picklable per-pair SMO fit job for the worker pool.

    The SMO solve is the expensive part of a multiclass SVM, so pairs
    are the natural parallel unit.  Each item is a pair index; the task
    carries the full data once and slices the pair subset in the worker.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        classes: np.ndarray,
        pairs: List[Tuple[int, int]],
        C: float,
        kernel: str,
        gamma: float,
        tol: float,
        max_iter: int,
    ) -> None:
        self.X = X
        self.y = y
        self.classes = classes
        self.pairs = pairs
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.tol = tol
        self.max_iter = max_iter

    def __call__(self, pair_index: int) -> "_BinarySVM":
        a, b = self.pairs[pair_index]
        mask = (self.y == self.classes[a]) | (self.y == self.classes[b])
        Xp = self.X[mask]
        y_pm = np.where(self.y[mask] == self.classes[a], 1.0, -1.0)
        machine = _BinarySVM(self.C, self.kernel, self.gamma, self.tol,
                             self.max_iter)
        return machine.fit(Xp, y_pm)


class SVC(Classifier):
    """C-SVM classifier (binary or one-vs-one multiclass).

    Args:
        C: penalty parameter.
        kernel: ``"rbf"`` (paper default) or ``"linear"``.
        gamma: RBF width; ``"scale"`` uses ``1 / (p * X.var())``.
        tol: working-pair KKT violation stopping tolerance.
        max_iter: SMO iteration cap per binary problem.
        n_jobs: worker count for the per-pair SMO solves (``None`` →
            ``REPRO_N_JOBS`` → serial); the solves are deterministic per
            pair, so any worker count yields identical machines.
    """

    def __init__(
        self,
        C: float = 10.0,
        kernel: str = "rbf",
        gamma="scale",
        tol: float = 1e-3,
        max_iter: int = 100_000,
        n_jobs: Optional[int] = None,
    ):
        if kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}")
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.tol = tol
        self.max_iter = max_iter
        self.n_jobs = n_jobs

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            variance = float(X.var())
            return 1.0 / (X.shape[1] * variance) if variance > 0 else 1.0
        if self.gamma == "auto":
            return 1.0 / X.shape[1]
        return float(self.gamma)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SVC":
        X, y = check_Xy(X, y)
        self.classes_ = np.unique(y)
        self.gamma_ = self._resolve_gamma(X)
        pairs = list(itertools.combinations(range(len(self.classes_)), 2))
        task = _SvmPairFitTask(
            X, y, self.classes_, pairs,
            self.C, self.kernel, self.gamma_, self.tol, self.max_iter,
        )
        machines = parallel_map(task, range(len(pairs)), n_jobs=self.n_jobs)
        self._machines: Dict[Tuple[int, int], _BinarySVM] = dict(
            zip(pairs, machines)
        )
        return self

    def _margins(self, X: np.ndarray) -> np.ndarray:
        """Decision values per pair machine, shape ``(n_pairs, n)``."""
        pairs = sorted(self._machines)
        margins = [self._machines[p].decision_function(X) for p in pairs]
        return np.array(margins).reshape(len(pairs), len(X))

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Pairwise decision values, shape ``(n, n_pairs)``.

        For binary problems this is ``(n,)`` with positive values voting
        for ``classes_[0]``.
        """
        margins = self._margins(check_Xy(X))
        return margins[0] if len(margins) == 1 else margins.T

    def predict(self, X: np.ndarray) -> np.ndarray:
        margins = self._margins(check_Xy(X))
        winners = pairwise_vote(
            sorted(self._machines), margins > 0, margins, len(self.classes_)
        )
        return self.classes_[winners]
