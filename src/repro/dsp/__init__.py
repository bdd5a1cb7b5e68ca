"""Signal processing: the continuous wavelet transform."""

from .cwt import CWT, CwtConfig, clear_cwt_cache, get_cwt

__all__ = [
    "CWT",
    "CwtConfig",
    "clear_cwt_cache",
    "get_cwt",
]
