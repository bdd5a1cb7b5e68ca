"""Level-gated stderr logging for the pipeline's status messages.

``repro`` historically leaked status text through bare ``print()`` calls
scattered across modules; replint rule REP008 now forbids those outside
CLI ``__main__`` modules.  This helper is the sanctioned replacement: it
writes to **stderr** (stdout stays reserved for experiment data and
result tables), prefixes the level, and is gated by the
``REPRO_OBS_LOG_LEVEL`` knob (``debug`` < ``info`` < ``warning`` <
``error`` < ``off``).

Deliberately tiny — no timestamps, no formatting machinery, no handlers.
Structured run data belongs in spans and metrics, not log lines.

Repeated-message storms (a ledger append failing on every record of a
long run repeats a near-identical warning each time) are rate-limited
per *key*: pass ``key="obs.ledger.append"`` and only the first message
with that key prints; later ones are counted silently until
:func:`flush_suppressed` emits one ``(+N similar suppressed: key)``
summary line per key.  Messages without a key behave exactly as before.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, Optional, Tuple

from ..util.knobs import get_str

__all__ = [
    "LEVELS",
    "debug",
    "error",
    "flush_suppressed",
    "info",
    "log",
    "reset_level",
    "reset_suppressed",
    "set_level",
    "warning",
]

#: Severity order; ``off`` silences everything.
LEVELS = ("debug", "info", "warning", "error", "off")

_threshold: Optional[int] = None

#: ``(level, key)`` -> count of messages suppressed since the key first
#: printed.  Guarded by a lock, so any thread may log.
_suppressed: Dict[Tuple[str, str], int] = {}
_seen_keys: set = set()
_dedup_lock = threading.Lock()


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


def log(level: str, message: str, key: Optional[str] = None) -> None:
    """Emit ``message`` to stderr when ``level`` clears the threshold.

    With a ``key``, only the first message per ``(level, key)`` prints;
    repeats are counted and summarized by :func:`flush_suppressed`, so a
    retry storm cannot flood stderr with near-identical lines.
    """
    index = _level_index(level)
    if index >= len(LEVELS) - 1:
        raise ValueError("cannot log at level 'off'")
    if index < _get_threshold():
        return
    if key is not None:
        with _dedup_lock:
            tag = (level, key)
            if tag in _seen_keys:
                _suppressed[tag] = _suppressed.get(tag, 0) + 1
                return
            _seen_keys.add(tag)
    sys.stderr.write(f"[{level}] {message}\n")
    sys.stderr.flush()


def flush_suppressed() -> int:
    """Emit one summary line per key with suppressed repeats; reset counts.

    Returns the total number of messages that had been suppressed.
    Long-running entrypoints call this at natural boundaries so the
    operator still learns the magnitude of a storm,
    just not one line at a time.
    """
    with _dedup_lock:
        pending = {tag: n for tag, n in _suppressed.items() if n}
        _suppressed.clear()
        _seen_keys.clear()
    total = 0
    for (level, key), count in sorted(pending.items()):
        total += count
        sys.stderr.write(
            f"[{level}] (+{count} similar suppressed: {key})\n"
        )
    if pending:
        sys.stderr.flush()
    return total


def reset_suppressed() -> None:
    """Forget all rate-limit state without emitting summaries (tests)."""
    with _dedup_lock:
        _suppressed.clear()
        _seen_keys.clear()


def debug(message: str, key: Optional[str] = None) -> None:
    """Emit a debug-level message."""
    log("debug", message, key=key)


def info(message: str, key: Optional[str] = None) -> None:
    """Emit an info-level message."""
    log("info", message, key=key)


def warning(message: str, key: Optional[str] = None) -> None:
    """Emit a warning-level message."""
    log("warning", message, key=key)


def error(message: str, key: Optional[str] = None) -> None:
    """Emit an error-level message."""
    log("error", message, key=key)
