"""Classification metrics: SR (accuracy), per-class recall, reports."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

__all__ = [
    "accuracy_score",
    "classification_report",
    "per_class_recall",
]


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction correct — the paper's successful recognition rate (SR)."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) == 0:
        raise ValueError("empty label arrays")
    return float(np.mean(y_true == y_pred))


def per_class_recall(y_true: np.ndarray, y_pred: np.ndarray) -> Dict[int, float]:
    """Recall (per-class SR) for each true class present."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    out: Dict[int, float] = {}
    for cls in np.unique(y_true):
        mask = y_true == cls
        out[int(cls)] = float(np.mean(y_pred[mask] == cls))
    return out


def classification_report(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    label_names: Optional[Sequence[str]] = None,
) -> str:
    """Human-readable per-class SR table."""
    recalls = per_class_recall(y_true, y_pred)
    lines = []
    for cls, recall in sorted(recalls.items()):
        name = label_names[cls] if label_names is not None else str(cls)
        lines.append(f"{name:>12s}  SR = {recall * 100:6.2f} %")
    lines.append(f"{'overall':>12s}  SR = {accuracy_score(y_true, y_pred) * 100:6.2f} %")
    return "\n".join(lines)
