# replint: disable-file=REP003 -- the ledger's job is recording when runs
# happened and how long they took; nothing here feeds experiment data.
"""The run ledger: an append-only history of every entrypoint invocation.

Each ``python -m repro.experiments`` run appends one JSON line to
``<REPRO_LEDGER_DIR>/ledger.jsonl`` describing what ran (entrypoint,
git revision, the ``REPRO_*`` knobs that were set), how long it took,
and what it produced (final metrics snapshot, heaviest span paths).
The append is a single ``O_APPEND``
write (:func:`repro.util.io.atomic_append_line`), so concurrent runs —
several experiments at once, parallel CI jobs sharing a directory —
interleave at line granularity and a crash can tear at most the final
line, which :func:`read_ledger` skips.

On top of the history sit two queries (surfaced by ``python -m
repro.obs runs`` / ``diff``):

* :func:`resolve_run` — address records by run id, unique id prefix, or
  the relative refs ``last`` / ``last~N``;
* :func:`diff_runs` — compare two records' per-span-path self times
  and counters, flagging self-time changes beyond a percentage
  threshold (default :data:`DIFF_THRESHOLD_PCT`, 20 %).

Recording is on by default (``REPRO_LEDGER=0`` disables; the test suite
does, globally) and is strictly best-effort: a read-only checkout or a
full disk degrades to a warning, never a failed run.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..util.io import atomic_append_line
from ..util.knobs import get_flag, get_path, knob_snapshot
from . import log as _log
from .sinks import summarize
from .trace import active_collector

__all__ = [
    "DIFF_THRESHOLD_PCT",
    "LEDGER_FORMAT",
    "diff_runs",
    "ledger_path",
    "read_ledger",
    "record_run",
    "resolve_run",
]

LEDGER_FORMAT = 1

#: Span paths faster than this are skipped when diffing: percentage
#: change on sub-millisecond timings is scheduler noise, not regression.
_MIN_DIFF_MS = 1.0

#: Default percent change past which :func:`diff_runs` flags a timing
#: (``python -m repro.obs diff --threshold-pct`` overrides it).
DIFF_THRESHOLD_PCT = 20.0

#: Monotone per-process counter mixed into run ids so two records from
#: the same process in the same second stay distinct.
_SEQ: Dict[str, int] = {"n": 0}


def ledger_path(directory: Optional[Union[str, Path]] = None) -> Path:
    """The ledger file under ``directory`` (default: the knob)."""
    base = Path(directory) if directory else Path(get_path("REPRO_LEDGER_DIR"))
    return base / "ledger.jsonl"


def _git_rev() -> str:
    """Current commit hash (short), or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def record_run(
    entry: str,
    *,
    status: str = "ok",
    duration_s: Optional[float] = None,
    extra: Optional[Dict[str, object]] = None,
    directory: Optional[Union[str, Path]] = None,
) -> Optional[Dict[str, object]]:
    """Append one run record; returns it, or ``None`` when disabled/failed.

    Args:
        entry: dotted entrypoint name (``"experiment.endtoend"``).
        status: ``"ok"`` / ``"failed"`` / anything the caller deems true.
        duration_s: wall time of the run (caller-measured).
        extra: small JSON-able run facts (scale, runner names) merged
            in under ``"extra"``.
        directory: override the ledger directory (tests; default knob).
    """
    if not get_flag("REPRO_LEDGER"):
        return None
    now = time.time()
    _SEQ["n"] += 1
    run_id = hashlib.sha256(
        f"{now!r}|{os.getpid()}|{entry}|{_SEQ['n']}".encode("utf-8")
    ).hexdigest()[:12]
    record: Dict[str, object] = {
        "format": LEDGER_FORMAT,
        "run_id": run_id,
        "entry": entry,
        "status": status,
        "t": round(now, 3),
        "pid": os.getpid(),
        "git_rev": _git_rev(),
        "knobs": knob_snapshot(),
    }
    if duration_s is not None:
        record["duration_s"] = round(float(duration_s), 3)
    collector = active_collector()
    if collector is not None:
        record["obs"] = summarize(collector)
    if extra:
        record["extra"] = extra
    try:
        atomic_append_line(
            ledger_path(directory), json.dumps(record, sort_keys=True)
        )
    except OSError as exc:
        _log.warning(f"ledger: append failed: {exc}")
        return None
    return record


def read_ledger(
    directory: Optional[Union[str, Path]] = None,
) -> List[Dict[str, object]]:
    """All parseable records, oldest first; torn/garbage lines skipped."""
    path = ledger_path(directory)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return []
    records: List[Dict[str, object]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn final line from a killed writer
        if isinstance(record, dict) and record.get("run_id"):
            records.append(record)
    return records


def resolve_run(
    records: List[Dict[str, object]], ref: str
) -> Dict[str, object]:
    """The record addressed by ``ref``; raises ``ValueError`` if none.

    ``ref`` forms: a full 12-hex run id, a unique id prefix (≥ 4 chars),
    ``last`` (most recent record), or ``last~N`` (N records before it).
    """
    if not records:
        raise ValueError("ledger is empty")
    if ref == "last":
        return records[-1]
    if ref.startswith("last~"):
        try:
            back = int(ref[len("last~"):])
        except ValueError:
            raise ValueError(f"bad run ref {ref!r}") from None
        if back < 0 or back >= len(records):
            raise ValueError(
                f"{ref!r} is out of range (ledger has {len(records)} runs)"
            )
        return records[-1 - back]
    matches = [
        r for r in records if str(r.get("run_id", "")).startswith(ref)
    ]
    if len(matches) == 1:
        return matches[-1]
    if not matches:
        raise ValueError(f"no run matches {ref!r}")
    exact = [r for r in matches if r.get("run_id") == ref]
    if exact:
        return exact[-1]
    raise ValueError(
        f"run ref {ref!r} is ambiguous ({len(matches)} matches); "
        "use a longer prefix"
    )


def _pct(old: float, new: float) -> float:
    return 100.0 * (new - old) / old if old else 0.0


def _span_self_ms(record: Dict[str, object]) -> Dict[str, float]:
    obs = record.get("obs")
    if not isinstance(obs, dict):
        return {}
    out: Dict[str, float] = {}
    for row in obs.get("top_self_ms", ()):  # type: ignore[union-attr]
        if isinstance(row, dict) and "path" in row:
            out[str(row["path"])] = float(row.get("self_ms", 0.0))
    return out


def _counters(record: Dict[str, object]) -> Dict[str, float]:
    obs = record.get("obs")
    if not isinstance(obs, dict):
        return {}
    counters = obs.get("counters")
    if not isinstance(counters, dict):
        return {}
    return {str(k): float(v) for k, v in counters.items()}


def diff_runs(
    old: Dict[str, object],
    new: Dict[str, object],
    threshold_pct: float = DIFF_THRESHOLD_PCT,
) -> Dict[str, object]:
    """Compare two ledger records; timings past the threshold are flagged.

    Compares, where both records carry them:

    * per-span-path ``self_ms`` from the ``obs`` summary (paths below
      ~1 ms skipped — percentage change there is noise);
    * counter totals (reported as deltas, never flagged as regressions —
      counts legitimately change with workload).

    Returns a dict with ``rows`` (every compared quantity),
    ``regressions`` / ``improvements`` (rows beyond the threshold), and
    the ``threshold_pct`` used.  ``python -m repro.obs diff`` exits
    non-zero when ``regressions`` is non-empty.
    """
    rows: List[Dict[str, object]] = []

    def compare(kind: str, name: str, a: float, b: float, gate: bool) -> None:
        pct = round(_pct(a, b), 2)
        rows.append(
            {
                "kind": kind,
                "name": name,
                "old": round(a, 4),
                "new": round(b, 4),
                "pct": pct,
                "flagged": gate and abs(pct) >= threshold_pct,
            }
        )

    old_spans, new_spans = _span_self_ms(old), _span_self_ms(new)
    for path in sorted(set(old_spans) & set(new_spans)):
        a, b = old_spans[path], new_spans[path]
        if max(a, b) < _MIN_DIFF_MS:
            continue
        compare("span", path, a, b, gate=True)
    old_counters, new_counters = _counters(old), _counters(new)
    for name in sorted(set(old_counters) & set(new_counters)):
        compare(
            "counter", name, old_counters[name], new_counters[name], gate=False
        )
    flagged = [row for row in rows if row["flagged"]]
    return {
        "old_run": old.get("run_id"),
        "new_run": new.get("run_id"),
        "threshold_pct": threshold_pct,
        "rows": rows,
        "regressions": [row for row in flagged if float(row["pct"]) > 0],  # type: ignore[arg-type]
        "improvements": [row for row in flagged if float(row["pct"]) < 0],  # type: ignore[arg-type]
    }
