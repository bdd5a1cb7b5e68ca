"""replint — self-hosted static analysis for the reproduction's invariants.

The reproduction's cross-cutting invariants — declared knobs, dtype
discipline on the GEMM paths, picklable pool tasks, span coverage —
used to live in reviewers' heads; this package makes them
machine-checked.  The engine is two-phase and serial: per-file AST
rules run over each parsed file, then whole-program rules run against
an assembled project model — module symbol tables, a resolved import
graph, and a call/def index (see :mod:`repro.analysis.project`).  Every
run lints the whole of ``src``, ``tests``, and ``benchmarks``
(``python -m repro.analysis``), in CI too, and must stay green:

========  ===================  =================================================
Code      Name                 Invariant
========  ===================  =================================================
REP001    knob-registry        ``os.environ`` only in :mod:`repro.util.env`;
                               knobs are read through :mod:`repro.util.knobs`
REP003    determinism          no global ``np.random`` or wall-clock reads in
                               library code
REP004    accumulation-dtype   reductions in ``features/`` and
                               ``ml/suffstats.py`` pin ``dtype=``
REP006    import-layering      ``isa``/``sim``/``dsp`` never import
                               ``experiments``
REP007    exception-hygiene    no bare/over-broad ``except`` in library code
REP008    no-print             library code reports through ``repro.obs``,
                               not ``print``
REP009    dtype-flow           trace arrays entering the GEMM paths
                               (``features.compiled``, ``dsp.cwt``) never
                               convert without a pinned ``dtype=`` or f64
                               accumulation (whole-program, import-graph
                               scoped)
REP010    parallel-safety      callables handed to ``parallel_map`` /
                               ``WorkerTask`` are module-level picklable
                               functions — no lambdas or closures, even
                               imported cross-module
REP011    span-coverage        public entry points in ``experiments``,
                               ``power``, ``features`` that loop over traces
                               carry an obs span (directly or via a callee)
REP012    knob-liveness        every registered knob has a read site; every
                               read resolves to a registration
REP013    unused-suppression   a ``# replint: disable`` comment that silences
                               nothing is itself reported
REP014    static-metric-names  span/counter/gauge/histogram names are
                               lowercase dotted string literals
                               (``area.operation``) — never f-strings or
                               concatenations — so cross-run diffing can
                               match on exact names
========  ===================  =================================================

Findings are suppressed inline with a justification::

    started = time.time()  # replint: disable=REP003 -- progress display

See DESIGN.md §10 for the suppression policy and §14 for the
project-model architecture.
"""

from __future__ import annotations

from .core import RULE_REGISTRY, FileContext, Finding, Rule
from .docs import check_knob_table, sync_knob_table
from .reporters import render_text
from .rules import all_rules
from .runner import ScanResult, iter_python_files, run

__all__ = [
    "FileContext",
    "Finding",
    "RULE_REGISTRY",
    "Rule",
    "ScanResult",
    "all_rules",
    "check_knob_table",
    "iter_python_files",
    "render_text",
    "run",
    "sync_knob_table",
]
