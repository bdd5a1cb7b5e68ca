"""Feature engineering: KL divergence fields, DNVP selection, PCA."""

from .kl import (
    WaveletStats,
    between_class_kl,
    gaussian_kl,
    symmetric_gaussian_kl,
    within_class_kl,
)
from .compiled import CompiledPipeline, CompileError
from .pca import PCA
from .pipeline import FeatureConfig, FeaturePipeline
from .snr import snr_field, snr_report
from .selection import (
    DnvpSelector,
    PairSelection,
    extract_points,
    local_maxima_2d,
    select_all_pairs,
    select_pair_points,
    unify_points,
)

__all__ = [
    "CompileError",
    "CompiledPipeline",
    "DnvpSelector",
    "FeatureConfig",
    "FeaturePipeline",
    "PCA",
    "PairSelection",
    "WaveletStats",
    "between_class_kl",
    "extract_points",
    "gaussian_kl",
    "local_maxima_2d",
    "select_all_pairs",
    "select_pair_points",
    "snr_field",
    "snr_report",
    "symmetric_gaussian_kl",
    "unify_points",
    "within_class_kl",
]
