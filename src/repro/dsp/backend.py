"""FFT backend selection for the signal-processing fast path.

The CWT fast path is built on batched real-input FFTs.  SciPy's pocketfft
(`scipy.fft`) is noticeably faster than `numpy.fft` on batched transforms,
but the substrate must keep running on a bare-numpy installation.  This
module hides that choice behind four functions (``rfft``/``irfft``/
``fft``/``ifft``) that always accept a ``workers`` keyword.

Backend resolution order:

1. programmatic override via :func:`set_backend` (``"scipy"``, ``"numpy"``
   or ``None`` to reset);
2. the ``REPRO_FFT_BACKEND`` environment variable (same values);
3. auto-detect: ``scipy`` when importable, else ``numpy``.

``workers=None`` means one pocketfft thread.  Parallelism lives one
level up: :meth:`repro.dsp.cwt.CWT.transform` runs whole trace chunks on
threads, each chunk calling these functions single-threaded, so there is
no second layer of FFT threads to oversubscribe the cores (and it keeps
the chunks serial when BLAS runs threads of its own).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..util.knobs import get_str

__all__ = [
    "available_backends",
    "fft",
    "get_backend",
    "ifft",
    "irfft",
    "rfft",
    "set_backend",
]

try:  # pragma: no cover - exercised implicitly on scipy installs
    import scipy.fft as _scipy_fft
except ImportError:  # pragma: no cover - numpy-only installs
    _scipy_fft = None

#: Programmatic override (highest priority); ``None`` = not overridden.
_override: Optional[str] = None


def available_backends() -> tuple:
    """Backends usable in this environment."""
    return ("scipy", "numpy") if _scipy_fft is not None else ("numpy",)


def set_backend(name: Optional[str]) -> None:
    """Force a backend (``"scipy"``/``"numpy"``), or ``None`` to reset."""
    global _override
    if name is not None and name not in ("scipy", "numpy"):
        raise ValueError(f"unknown FFT backend {name!r}")
    if name == "scipy" and _scipy_fft is None:
        raise ValueError("scipy backend requested but scipy is not installed")
    _override = name


def get_backend() -> str:
    """The backend name transforms will run on right now."""
    if _override is not None:
        return _override
    env = get_str("REPRO_FFT_BACKEND")
    if env in ("scipy", "numpy"):
        if env == "scipy" and _scipy_fft is None:
            return "numpy"
        return env
    return "scipy" if _scipy_fft is not None else "numpy"


def _dispatch(scipy_fn: Callable, numpy_fn: Callable):
    def wrapper(a, n=None, axis=-1, workers=None):
        if get_backend() == "scipy":
            return scipy_fn(a, n=n, axis=axis, workers=workers or 1)
        return numpy_fn(a, n=n, axis=axis)

    return wrapper


if _scipy_fft is not None:
    rfft = _dispatch(_scipy_fft.rfft, np.fft.rfft)
    irfft = _dispatch(_scipy_fft.irfft, np.fft.irfft)
    fft = _dispatch(_scipy_fft.fft, np.fft.fft)
    ifft = _dispatch(_scipy_fft.ifft, np.fft.ifft)
else:  # pragma: no cover - numpy-only installs
    rfft = _dispatch(None, np.fft.rfft)
    irfft = _dispatch(None, np.fft.irfft)
    fft = _dispatch(None, np.fft.fft)
    ifft = _dispatch(None, np.fft.ifft)

rfft.__doc__ = "Real-input forward FFT on the selected backend."
irfft.__doc__ = "Inverse FFT returning a real array on the selected backend."
fft.__doc__ = "Complex forward FFT on the selected backend."
ifft.__doc__ = "Complex inverse FFT on the selected backend."
