"""Shared capped-exponential-backoff policy with deterministic jitter.

Two independent layers grew the same retry shape: the acquisition-side
re-capture loop (:mod:`repro.power.quality`) backs off between re-arms
of a flagged window, and the campaign engine
(:mod:`repro.experiments.campaign`) backs off between retry rounds of a
failed grid cell.  Both want the textbook funnel — ``base * factor **
(attempt-1)`` capped at a ceiling — plus two properties a reproduction
repo cares about more than a web service does:

* **determinism**: jitter decorrelates retry storms, but a random jitter
  would make campaign runs non-resumable (a resumed run must replay the
  same schedule a fresh run would produce).  Jitter here is a pure
  function of ``(seed, key, attempt)`` — same inputs, same delay, no
  global random state consumed;
* **injectable sleep**: the simulated bench never actually waits.  The
  ``sleep`` hook is ``None`` by default (delays are *computed* and
  returned so callers can log or assert on them) and ``time.sleep``
  against real hardware.

:class:`BackoffPolicy` is the shared implementation;
``repro.power.quality.RetryPolicy`` subclasses it for the
``REPRO_FAULT_*`` knob wiring and the campaign engine instantiates it
directly from ``REPRO_CAMPAIGN_*``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["BackoffPolicy", "uniform01"]


def uniform01(seed: int, key: str) -> float:
    """Deterministic pseudo-uniform draw in ``[0, 1)`` from ``(seed, key)``.

    A CRC32 of the seed-salted key — not cryptographic, but stable
    across processes and Python versions (unlike ``hash()``), cheap,
    and well-spread enough for backoff jitter and the campaign's
    synthetic measurement noise.
    """
    token = f"{seed}|{key}".encode("utf-8")
    return (zlib.crc32(token) & 0xFFFFFFFF) / 2.0**32


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with deterministic seeded jitter.

    Attributes:
        max_attempts: retries allowed before the caller gives up
            (0 = no retries; the policy only counts, callers enforce).
        backoff_base: wait before the first retry, in seconds
            (0 = never wait).
        backoff_factor: multiplier per further attempt.
        max_backoff: ceiling on any single wait, applied before jitter.
        jitter: fractional spread — the delay is scaled by a
            deterministic factor in ``[1 - jitter, 1 + jitter)`` drawn
            from ``(seed, key, attempt)``.  0 (the default) disables
            jitter entirely, keeping legacy delay sequences bit-exact.
        seed: jitter seed (include the run seed so distinct campaigns
            decorrelate).
        sleep: hook that actually performs the wait; ``None`` computes
            delays without sleeping (the simulated-bench default).
    """

    max_attempts: int = 2
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    max_backoff: float = 30.0
    jitter: float = 0.0
    seed: int = 0
    sleep: Optional[Callable[[float], None]] = None

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry ``attempt`` (1-based), in seconds.

        ``key`` names the retrying entity (a cell ID, a shard name) so
        concurrent retry streams jitter independently but each stream
        replays identically on resume.
        """
        if attempt < 1 or self.backoff_base <= 0.0:
            return 0.0
        raw = self.backoff_base * self.backoff_factor ** (attempt - 1)
        raw = min(raw, self.max_backoff)
        if self.jitter > 0.0:
            spread = 2.0 * uniform01(self.seed, f"{key}|{attempt}") - 1.0
            raw *= 1.0 + self.jitter * spread
        return max(0.0, raw)

    def wait(self, attempt: int, key: str = "") -> float:
        """Apply (via the hook) and return the backoff for ``attempt``."""
        delay = self.delay(attempt, key)
        if delay > 0.0 and self.sleep is not None:
            self.sleep(delay)
        return delay
