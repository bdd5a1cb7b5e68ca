"""Level-gated stderr logging for the pipeline's status messages.

``repro`` historically leaked status text through bare ``print()`` calls
scattered across modules; replint rule REP008 now forbids those outside
CLI ``__main__`` modules.  This helper is the sanctioned replacement: it
writes to **stderr** (stdout stays reserved for experiment data and
result tables), prefixes the level, and is gated by the
``REPRO_OBS_LOG_LEVEL`` knob (``debug`` < ``info`` < ``warning`` <
``error`` < ``off``).

Deliberately tiny — no timestamps, no formatting machinery, no handlers,
no deduplication.  Structured run data belongs in spans and metrics, not
log lines.
"""

from __future__ import annotations

import sys
from typing import Optional

from ..util.knobs import get_str

__all__ = [
    "LEVELS",
    "debug",
    "error",
    "info",
    "log",
    "reset_level",
    "set_level",
    "warning",
]

#: Severity order; ``off`` silences everything.
LEVELS = ("debug", "info", "warning", "error", "off")

_threshold: Optional[int] = None


def _level_index(level: str) -> int:
    try:
        return LEVELS.index(level)
    except ValueError:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {LEVELS}"
        ) from None


def _get_threshold() -> int:
    global _threshold
    if _threshold is None:
        _threshold = _level_index(get_str("REPRO_OBS_LOG_LEVEL"))
    return _threshold


def set_level(level: str) -> None:
    """Override the threshold for this process (tests, CLI verbosity)."""
    global _threshold
    _threshold = _level_index(level)


def reset_level() -> None:
    """Forget the cached threshold so the knob is re-read (tests)."""
    global _threshold
    _threshold = None


def log(level: str, message: str) -> None:
    """Emit ``message`` to stderr when ``level`` clears the threshold."""
    index = _level_index(level)
    if index >= len(LEVELS) - 1:
        raise ValueError("cannot log at level 'off'")
    if index < _get_threshold():
        return
    sys.stderr.write(f"[{level}] {message}\n")
    sys.stderr.flush()


def debug(message: str) -> None:
    """Emit a debug-level message."""
    log("debug", message)


def info(message: str) -> None:
    """Emit an info-level message."""
    log("info", message)


def warning(message: str) -> None:
    """Emit a warning-level message."""
    log("warning", message)


def error(message: str) -> None:
    """Emit an error-level message."""
    log("error", message)
