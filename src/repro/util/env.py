"""Environment-variable knob parsing shared by every ``REPRO_*`` knob.

Knobs tune resources and policies — memory budgets, worker counts and
cutovers, fault injection, observability; none selects between
alternative implementations of a stage, and none changes a fitted model.  The parsing rules live here so
each knob behaves identically: flags accept ``0/false/off`` (case-insensitive)
as disabled and anything else as enabled; numeric knobs fall back to
their default on unparsable values instead of raising at import time.

A bad value is never fatal, but it is no longer silent either: the first
time a knob's value is discarded (unparsable text, an out-of-range number
clamped to its minimum, an unknown choice) a single :class:`RuntimeWarning`
names the knob, the rejected value, and the fallback actually used.  The
warning fires once per knob per process so a knob read in a hot loop does
not spam the log.

This module deliberately knows nothing about *which* knobs exist — the
central declarations live in :mod:`repro.util.knobs`.  This is the only
module in the package allowed to touch ``os.environ`` (enforced by the
``REP001`` replint rule; see :mod:`repro.analysis`).
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Sequence, Set, Tuple

__all__ = [
    "env_flag",
    "env_float",
    "env_int",
    "env_path",
    "env_snapshot",
    "env_str",
    "reset_env_warnings",
]

_FALSY: Tuple[str, ...] = ("0", "false", "off")

#: Knobs that already emitted a bad-value warning in this process.
_warned: Set[str] = set()


def reset_env_warnings() -> None:
    """Forget which knobs have warned (so tests can assert re-warning)."""
    _warned.clear()


def _warn_once(name: str, message: str) -> None:
    """Emit ``message`` as a RuntimeWarning, at most once per knob."""
    if name in _warned:
        return
    _warned.add(name)
    warnings.warn(message, RuntimeWarning, stacklevel=4)


def _raw(name: str) -> str:
    return os.environ.get(name, "").strip()


def env_flag(name: str, default: bool = True) -> bool:
    """Read a boolean knob; unset returns ``default``.

    Any non-empty value other than ``0``/``false``/``off``
    (case-insensitive) counts as enabled.
    """
    raw = _raw(name).lower()
    if not raw:
        return default
    return raw not in _FALSY


def env_int(
    name: str, default: int, minimum: Optional[int] = None
) -> int:
    """Read an integer knob; unset or unparsable returns ``default``.

    Args:
        name: environment variable to read.
        default: value used when the variable is unset or unparsable.
        minimum: optional floor; a parsed value below it is clamped (and
            warned about, once).  The default itself is trusted and never
            clamped.

    An unparsable value emits a one-shot :class:`RuntimeWarning` naming
    the knob and the fallback instead of silently vanishing.
    """
    raw = _raw(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        _warn_once(
            name,
            f"ignoring {name}={raw!r}: not an integer; using default {default}",
        )
        return default
    if minimum is not None and value < minimum:
        _warn_once(
            name,
            f"clamping {name}={value} to the minimum {minimum}",
        )
        return minimum
    return value


def env_float(
    name: str, default: float, minimum: Optional[float] = None
) -> float:
    """Read a float knob; unset or unparsable returns ``default``.

    Same warning/clamping contract as :func:`env_int`.
    """
    raw = _raw(name)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        _warn_once(
            name,
            f"ignoring {name}={raw!r}: not a number; using default {default}",
        )
        return default
    if minimum is not None and value < minimum:
        _warn_once(
            name,
            f"clamping {name}={value} to the minimum {minimum}",
        )
        return minimum
    return value


def env_path(name: str, default: str = "") -> str:
    """Read a filesystem-path knob verbatim (no lowercasing, no choices).

    Paths are case-sensitive on most filesystems, so unlike
    :func:`env_str` the raw value is preserved; only surrounding
    whitespace is stripped.  Unset returns ``default``.
    """
    raw = _raw(name)
    return raw if raw else default


def env_snapshot(names: Sequence[str]) -> dict:
    """``{name: raw value}`` for every listed variable that is set.

    Used by the run ledger to record which knobs a run was launched
    with — values are reported verbatim, exactly as the process saw
    them, so a ledger diff can explain a regression by configuration.
    """
    out = {}
    for name in names:
        raw = os.environ.get(name)
        if raw is not None and raw.strip():
            out[name] = raw.strip()
    return out


def env_str(
    name: str,
    default: str,
    choices: Optional[Sequence[str]] = None,
) -> str:
    """Read a lowercased string knob, optionally restricted to ``choices``.

    A value outside ``choices`` emits a one-shot :class:`RuntimeWarning`
    and returns ``default`` — an unknown spelling must never silently
    select a different code path.
    """
    raw = _raw(name).lower()
    if not raw:
        return default
    if choices is not None and raw not in choices:
        _warn_once(
            name,
            f"ignoring {name}={raw!r}: expected one of {tuple(choices)}; "
            f"using default {default!r}",
        )
        return default
    return raw
