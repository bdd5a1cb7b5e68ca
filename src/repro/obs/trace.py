# replint: disable-file=REP003 -- the span tracer's entire product is
# wall-clock measurement; no derived experiment data flows from it.
"""The span tracer: where time goes in the trace→template→inference pipeline.

A *span* is one timed region — ``with span("cwt.batch"): ...`` — with a
name, wall time, CPU (thread) time, and a position in the tree of
currently-open spans.  Spans nest naturally (each thread keeps its own
stack) and the report tool (``python -m repro.obs report``) aggregates
self/cumulative time per tree path, flame-style.

Two states:

1. **disabled** (the default): no collector is installed.  ``span()``
   returns a shared no-op context manager after a single attribute
   check; metric helpers return a shared no-op sink.  CI gates this
   fast path's projected cost at < 2 % of end-to-end runtime
   (``benchmarks/check_obs_overhead.py``).
2. **enabled** (``REPRO_OBS=1`` or :func:`activate`): finished spans are
   appended to the active :class:`Collector` under a lock, metric
   updates hit the collector's :class:`~repro.obs.metrics.MetricsRegistry`.

Cross-process spans: :func:`repro.util.parallel.parallel_map` wraps its
work function so that each item executed on a worker process runs under
a fresh worker-local collector whose spans and metrics ship back with
the item's result and merge into the parent collector, re-rooted under
the parent's currently-open span path.  See :func:`Collector.merge`.

Span naming convention (enforced socially, documented in DESIGN.md §12):
lowercase dotted ``area.operation`` — ``capture.set``, ``screen.cycle``,
``cwt.batch``, ``kl.select``, ``pca.fit``, ``train.level``,
``infer.instructions``, ``stage.<checkpoint-stage>``,
``experiment.<runner>``.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..util.knobs import get_flag
from .metrics import MetricsRegistry

__all__ = [
    "Collector",
    "MAX_SPANS",
    "SpanRecord",
    "WorkerTask",
    "activate",
    "active_collector",
    "counter",
    "deactivate",
    "enabled",
    "gauge",
    "histogram",
    "merge_payload",
    "now_ms",
    "reset",
    "span",
    "take_payload",
    "traced",
]

#: Default span-buffer cap per run; spans beyond it are dropped and
#: counted in ``obs.spans_dropped``.
MAX_SPANS = 100_000


@dataclass
class SpanRecord:
    """One finished span, as stored by the collector and serialized.

    Attributes:
        path: ``/``-joined names of the span and its ancestors at the
            time it opened (``"experiment.endtoend/stage.groups/cwt.batch"``).
        name: leaf name (last path component).
        start: wall-clock epoch seconds when the span opened.
        wall_ms: wall-clock duration.
        cpu_ms: CPU time consumed by the opening thread.
        self_ms: ``wall_ms`` minus the wall time of direct children —
            the time spent in this span's own code.
        pid: process that executed the span (workers differ from parent).
        error: exception class name when the span exited via an
            exception, else ``""``.
        attrs: small JSON-able annotations (batch size, class count...).
    """

    path: str
    name: str
    start: float
    wall_ms: float
    cpu_ms: float
    self_ms: float
    pid: int = 0
    error: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSONL line payload (stable key order, compact)."""
        out: Dict[str, object] = {
            "type": "span",
            "path": self.path,
            "name": self.name,
            "start": round(self.start, 6),
            "wall_ms": round(self.wall_ms, 4),
            "cpu_ms": round(self.cpu_ms, 4),
            "self_ms": round(self.self_ms, 4),
            "pid": self.pid,
        }
        if self.error:
            out["error"] = self.error
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Collector:
    """Accumulates finished spans and metrics for one run.

    Thread-safe: spans may finish on any thread; each thread owns its
    own span *stack* (nesting is per-thread) while the finished-span
    list and the metrics registry are shared under a lock.  The span
    count is bounded by ``max_spans`` (default :data:`MAX_SPANS`) —
    beyond it, spans are dropped (and counted in the
    ``obs.spans_dropped`` counter) rather than growing without limit on
    a long run.
    """

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.spans: List[SpanRecord] = []
        self.metrics = MetricsRegistry()
        self.t0 = time.time()
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span bookkeeping ----------------------------------------------------
    def _stack(self) -> List["_Span"]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_path(self) -> str:
        """Path of the innermost open span on this thread ("" at root)."""
        stack = self._stack()
        return stack[-1]._path if stack else ""

    def record(self, record: SpanRecord) -> None:
        """Append one finished span (drops past ``max_spans``)."""
        with self._lock:
            if len(self.spans) >= self.max_spans:
                self.metrics.counter("obs.spans_dropped").inc()
                return
            self.spans.append(record)

    # -- cross-process merge -------------------------------------------------
    def take_payload(self) -> Dict[str, object]:
        """Drain spans + metrics into a picklable payload (worker side)."""
        with self._lock:
            spans = [s.as_dict() for s in self.spans]
            self.spans = []
        return {
            "pid": os.getpid(),
            "spans": spans,
            "metrics": self.metrics.snapshot(),
        }

    def merge(
        self, payload: Dict[str, object], prefix: Optional[str] = None
    ) -> None:
        """Fold a worker payload in, re-rooting spans under ``prefix``.

        ``prefix=None`` uses the calling thread's currently-open span
        path, so worker spans appear as children of the span that
        launched the parallel region.
        """
        if prefix is None:
            prefix = self.current_path()
        pid = int(payload.get("pid", 0))
        for line in payload.get("spans", ()):  # type: ignore[union-attr]
            path = str(line["path"])
            with self._lock:
                if len(self.spans) >= self.max_spans:
                    self.metrics.counter("obs.spans_dropped").inc()
                    continue
                self.spans.append(
                    SpanRecord(
                        path=f"{prefix}/{path}" if prefix else path,
                        name=str(line["name"]),
                        start=float(line["start"]),
                        wall_ms=float(line["wall_ms"]),
                        cpu_ms=float(line["cpu_ms"]),
                        self_ms=float(line["self_ms"]),
                        pid=pid,
                        error=str(line.get("error", "")),
                        attrs=dict(line.get("attrs", {})),  # type: ignore[arg-type]
                    )
                )
        self.metrics.merge_snapshot(payload.get("metrics", {}))  # type: ignore[arg-type]


# -- module state -------------------------------------------------------------

_collector: Optional[Collector] = None
#: Whether the REPRO_OBS knob has been consulted in this process yet.
_env_checked = False
_state_lock = threading.Lock()


def _ensure_env_checked() -> None:
    """Auto-activate once per process when ``REPRO_OBS=1`` is set."""
    global _env_checked, _collector
    with _state_lock:
        if _env_checked:
            return
        _env_checked = True
        if _collector is None and get_flag("REPRO_OBS"):
            _collector = Collector()


def enabled() -> bool:
    """Whether spans and metrics are being collected right now."""
    if not _env_checked:
        _ensure_env_checked()
    return _collector is not None


def active_collector() -> Optional[Collector]:
    """The live :class:`Collector`, or ``None`` when disabled."""
    if not _env_checked:
        _ensure_env_checked()
    return _collector


def activate(collector: Optional[Collector] = None) -> Collector:
    """Install (and return) a collector, enabling span/metric capture.

    Used by the ``--trace`` CLI flag and by tests; ``REPRO_OBS=1``
    reaches the same state lazily on first :func:`span` call.
    """
    global _collector, _env_checked
    with _state_lock:
        _env_checked = True
        if collector is None:
            collector = _collector if _collector is not None else Collector()
        _collector = collector
        return collector


def deactivate() -> Optional[Collector]:
    """Remove the active collector (returning it) and stop collecting."""
    global _collector
    with _state_lock:
        collector, _collector = _collector, None
        return collector


def reset() -> None:
    """Forget all state *and* the cached ``REPRO_OBS`` check (tests)."""
    global _collector, _env_checked
    with _state_lock:
        _collector = None
        _env_checked = False


# -- the span context manager -------------------------------------------------


class _NullSpan:
    """Shared no-op returned by :func:`span` while disabled."""

    __slots__ = ()

    def annotate(self, **attrs) -> None:
        """No-op counterpart of :meth:`_Span.annotate`."""
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span frame (the enabled-path context manager)."""

    __slots__ = (
        "_collector", "_name", "_attrs", "_path", "_start", "_t0",
        "_cpu0", "_child_wall_ms",
    )

    def __init__(self, collector: Collector, name: str, attrs: Dict[str, object]):
        self._collector = collector
        self._name = name
        self._attrs = attrs
        self._path = name
        self._start = 0.0
        self._t0 = 0.0
        self._cpu0 = 0.0
        self._child_wall_ms = 0.0

    def annotate(self, **attrs) -> None:
        """Attach attrs discovered mid-span (small JSON-able values).

        Open-time attrs cover most uses; this exists for facts only
        known while the span runs — e.g. which work items failed inside
        a ``parallel.map`` region.  Call before the span closes.
        """
        self._attrs.update(attrs)

    def __enter__(self) -> "_Span":
        stack = self._collector._stack()
        if stack:
            self._path = f"{stack[-1]._path}/{self._name}"
        self._start = time.time()
        self._t0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall_ms = (time.perf_counter() - self._t0) * 1e3
        cpu_ms = (time.thread_time() - self._cpu0) * 1e3
        stack = self._collector._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1]._child_wall_ms += wall_ms
        self._collector.record(
            SpanRecord(
                path=self._path,
                name=self._name,
                start=self._start,
                wall_ms=wall_ms,
                cpu_ms=cpu_ms,
                self_ms=max(0.0, wall_ms - self._child_wall_ms),
                pid=os.getpid(),
                error=exc_type.__name__ if exc_type is not None else "",
                attrs=self._attrs,
            )
        )
        return None  # never swallow the exception


def span(name: str, **attrs):
    """Open a timed span; a shared no-op when collection is disabled.

    Usage::

        with span("cwt.batch", n=len(traces)):
            ...

    ``attrs`` must be small JSON-able values; they ride along on the
    span record.  Exceptions propagate — the span records the exception
    class name and closes cleanly first.
    """
    collector = _collector
    if collector is None:
        if _env_checked:
            return _NULL_SPAN
        _ensure_env_checked()
        collector = _collector
        if collector is None:
            return _NULL_SPAN
    return _Span(collector, name, attrs)


def traced(name: str, **attrs) -> Callable:
    """Decorator form of :func:`span` (enablement checked per call)."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# -- metric helpers (no-op when disabled) -------------------------------------


class _NullMetric:
    """Shared write-only sink while collection is disabled."""

    __slots__ = ()
    value = 0

    def inc(self, n: int = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_METRIC = _NullMetric()


def counter(name: str):
    """The active run's counter ``name`` (a no-op sink when disabled)."""
    collector = active_collector()
    if collector is None:
        return _NULL_METRIC
    return collector.metrics.counter(name)


def gauge(name: str):
    """The active run's gauge ``name`` (a no-op sink when disabled)."""
    collector = active_collector()
    if collector is None:
        return _NULL_METRIC
    return collector.metrics.gauge(name)


def histogram(name: str, edges: Optional[Sequence[float]] = None):
    """The active run's histogram ``name`` (a no-op sink when disabled)."""
    collector = active_collector()
    if collector is None:
        return _NULL_METRIC
    return collector.metrics.histogram(name, edges)


# -- cross-process helpers (used by repro.util.parallel) ----------------------


def now_ms() -> float:
    """Monotonic milliseconds, for instrumentation-only interval math.

    Exists so instrumented modules can measure observability intervals
    without importing clocks themselves (replint REP003 keeps clock
    calls out of library code; this module carries the waiver).
    """
    return time.perf_counter() * 1e3


class WorkerTask:
    """Picklable wrapper that ships worker-side spans/metrics home.

    :func:`repro.util.parallel.parallel_map` wraps its work function in
    one of these when observability is active and a pool is engaged.
    On a worker process, each call runs under a fresh worker-local
    collector and returns ``(result, payload)`` where ``payload`` is
    the drained span/metric state (plus the item's wall time in the
    ``parallel.task_ms`` histogram).  On the *parent* process (serial
    salvage after pool failure) it calls through undecorated and
    returns ``(result, None)`` — the parent's own collector already saw
    everything.
    """

    __slots__ = ("fn", "parent_pid")

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.parent_pid = os.getpid()

    def __call__(self, item) -> Tuple[object, Optional[Dict[str, object]]]:
        if os.getpid() == self.parent_pid:
            return self.fn(item), None
        collector = activate(Collector())
        t0 = time.perf_counter()
        result = self.fn(item)
        collector.metrics.histogram("parallel.task_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
        return result, collector.take_payload()


def take_payload() -> Optional[Dict[str, object]]:
    """Drain the active collector into a picklable payload (worker side)."""
    collector = active_collector()
    if collector is None:
        return None
    return collector.take_payload()


def merge_payload(
    payload: Optional[Dict[str, object]], prefix: Optional[str] = None
) -> None:
    """Merge a worker payload into the active collector (parent side)."""
    if payload is None:
        return
    collector = active_collector()
    if collector is not None:
        collector.merge(payload, prefix=prefix)
