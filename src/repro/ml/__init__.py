"""From-scratch machine learning library used by the disassembler."""

from .base import Classifier
from .discriminant import LDA, QDA
from .hmm import GaussianHMM, transition_matrix_from_sequences
from .knn import KNeighborsClassifier
from .metrics import (
    accuracy_score,
    classification_report,
    per_class_recall,
)
from .model_selection import GridSearch, cross_val_score, kfold_indices
from .naive_bayes import GaussianNB
from .ovo import OneVsOneClassifier
from .suffstats import ClassStats
from .svm import SVC, linear_kernel, rbf_kernel

__all__ = [
    "ClassStats",
    "Classifier",
    "GaussianHMM",
    "GaussianNB",
    "GridSearch",
    "KNeighborsClassifier",
    "LDA",
    "OneVsOneClassifier",
    "QDA",
    "SVC",
    "accuracy_score",
    "classification_report",
    "cross_val_score",
    "kfold_indices",
    "linear_kernel",
    "per_class_recall",
    "rbf_kernel",
    "transition_matrix_from_sequences",
]
