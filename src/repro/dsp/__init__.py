"""Signal processing: the continuous wavelet transform and its FFT backend."""

from . import backend
from .cwt import CWT, CwtConfig, clear_cwt_cache, get_cwt

__all__ = [
    "CWT",
    "CwtConfig",
    "backend",
    "clear_cwt_cache",
    "get_cwt",
]
