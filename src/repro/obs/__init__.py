"""``repro.obs`` — zero-dependency observability for the pipeline.

Three layers, all gated on ``REPRO_OBS*`` knobs and all no-ops (shared
singletons, one attribute check) when disabled:

* **spans** (:mod:`repro.obs.trace`) — ``with span("cwt.batch"): ...``
  timed regions with nesting, wall/CPU time, optional memory peaks, and
  cross-process merging from :mod:`repro.util.parallel` workers;
* **metrics** (:mod:`repro.obs.metrics`) — counters/gauges/fixed-bucket
  histograms published by the caches, the worker pool, quality
  screening, and the hierarchy;
* **sinks** (:mod:`repro.obs.sinks`, :mod:`repro.obs.report`) — JSONL
  trace export (``--trace PATH`` on every experiment entrypoint),
  ``ResultTable.meta["obs"]`` summaries, and the
  ``python -m repro.obs report`` aggregation CLI.

Plus :mod:`repro.obs.log`, the level-gated stderr logger that replaces
bare ``print()`` (enforced by replint rule REP008), and the run
**ledger** (:mod:`repro.obs.ledger`) — an append-only history of every
entrypoint run (git rev, knobs, duration, metrics);
``python -m repro.obs runs`` lists it and ``... diff A B`` flags
cross-run perf regressions.

See DESIGN.md §12 for architecture and the span naming convention, and
§16 for the ledger file format.
"""

from . import ledger, log
from .ledger import diff_runs, read_ledger, record_run, resolve_run
from .metrics import DEFAULT_BUCKETS_MS, MetricsRegistry
from .sinks import maybe_export, summarize, write_jsonl
from .trace import (
    Collector,
    SpanRecord,
    activate,
    active_collector,
    counter,
    deactivate,
    enabled,
    gauge,
    histogram,
    merge_payload,
    span,
    take_payload,
    traced,
)

__all__ = [
    "Collector",
    "DEFAULT_BUCKETS_MS",
    "MetricsRegistry",
    "SpanRecord",
    "activate",
    "active_collector",
    "counter",
    "deactivate",
    "diff_runs",
    "enabled",
    "gauge",
    "histogram",
    "ledger",
    "log",
    "maybe_export",
    "merge_payload",
    "read_ledger",
    "record_run",
    "resolve_run",
    "span",
    "summarize",
    "take_payload",
    "traced",
    "write_jsonl",
]
